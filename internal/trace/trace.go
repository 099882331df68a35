// Package trace synthesizes the external-event workload the evaluation
// replays: the paper uses OSPF traces from a Tier-1 ISP area-0 network (324
// nodes, two weeks, 651 network events) randomly mapped onto Rocketfuel
// topologies (§5.1). Real Tier-1 traces are proprietary, so this package
// generates a workload with the same statistical character: link up/down
// events with heavy-tailed inter-arrival times, flap clustering (a failure
// is followed by a repair, sometimes after several flaps), mapped uniformly
// onto the target topology's links.
//
// The paper replays the two-week trace compressed onto an emulation
// timeline; Compress implements that rescaling while preserving ordering
// and burst structure.
package trace

import (
	"fmt"
	"sort"

	"defined/internal/rng"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// EventType enumerates external network events.
type EventType uint8

const (
	// LinkDown marks a link failure.
	LinkDown EventType = iota
	// LinkUp marks a link repair.
	LinkUp
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event is one external network event: at virtual time At, the link A-B
// goes down or comes back up. These are exactly the events DEFINED's
// partial recording captures in a production network.
type Event struct {
	At   vtime.Time
	Type EventType
	A, B int
}

// String renders the event.
func (e Event) String() string {
	return fmt.Sprintf("%v %s %d-%d", e.At, e.Type, e.A, e.B)
}

// Config parameterizes the synthesizer.
type Config struct {
	// Events is the total number of events to generate (default: the
	// paper's 651).
	Events int
	// Seed selects the deterministic random stream.
	Seed uint64
}

// The paper's Tier-1 trace parameters, fixed for every synthesized trace.
const (
	// traceWindow is the virtual-time span of the raw trace (paper: 2
	// weeks).
	traceWindow = 14 * vtime.Day
	// meanRepair is the mean time between a failure and its repair.
	meanRepair = 10 * vtime.Minute
	// flapProb is the probability a repaired link immediately fails
	// again (producing flap clusters).
	flapProb = 0.25
)

// Synthesize produces a sorted event trace mapped onto g's links. Every
// LinkDown is paired with a later LinkUp for the same link (truncated only
// if the event budget runs out), and a link never fails while already down.
func Synthesize(g *topology.Graph, cfg Config) []Event {
	if cfg.Events == 0 {
		cfg.Events = 651
	}
	if len(g.Links) == 0 || cfg.Events <= 0 {
		return nil
	}
	r := rng.New(cfg.Seed).Derive("trace")

	// Heavy-tailed incident inter-arrival: Pareto with alpha 1.5 scaled
	// so that the expected number of incidents fills the window. Each
	// incident contributes >= 2 events (down+up), more when it flaps.
	expectedPerIncident := 2.0 / (1 - flapProb)
	incidents := int(float64(cfg.Events)/expectedPerIncident) + 1
	meanGap := float64(traceWindow) / float64(incidents+1)
	// Pareto(xm, a) has mean xm*a/(a-1); solve xm for the target mean.
	const alpha = 1.5
	xm := meanGap * (alpha - 1) / alpha

	down := make(map[int]bool, len(g.Links)) // link index → currently down
	var events []Event
	now := vtime.Time(0)
	for len(events) < cfg.Events {
		gap := vtime.Duration(r.Pareto(xm, alpha))
		if gap < vtime.Second {
			gap = vtime.Second
		}
		now = now.Add(gap)
		if now > vtime.Time(traceWindow) {
			// Wrap around rather than exceed the window: restart the
			// arrival process, keeping link state.
			now = vtime.Time(vtime.Duration(r.Float64() * float64(traceWindow) * 0.1))
		}
		// Pick a currently-up link uniformly.
		li := r.Intn(len(g.Links))
		tries := 0
		for down[li] && tries < len(g.Links) {
			li = (li + 1) % len(g.Links)
			tries++
		}
		if down[li] {
			continue // everything down (pathological); skip
		}
		l := g.Links[li]
		t := now
		for {
			events = append(events, Event{At: t, Type: LinkDown, A: l.A, B: l.B})
			repair := vtime.Duration(float64(meanRepair) * r.ExpFloat64())
			if repair < vtime.Second {
				repair = vtime.Second
			}
			t = t.Add(repair)
			events = append(events, Event{At: t, Type: LinkUp, A: l.A, B: l.B})
			if len(events) >= cfg.Events || r.Float64() >= flapProb {
				break
			}
			// Flap: fail again shortly after repair.
			t = t.Add(vtime.Duration(float64(10*vtime.Second) * r.ExpFloat64()))
		}
	}
	events = events[:cfg.Events]
	sortEvents(events)
	return sanitize(events)
}

// sortEvents orders by time, breaking ties deterministically by link then
// type (downs before ups so a same-instant down+up pair stays causal).
func sortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.Type < b.Type
	})
}

// sanitize enforces per-link down/up alternation after sorting and
// truncation may have broken pairs: a LinkUp for a link that is up and a
// LinkDown for a link that is down are dropped.
func sanitize(events []Event) []Event {
	type key struct{ a, b int }
	down := map[key]bool{}
	out := events[:0]
	for _, e := range events {
		k := key{e.A, e.B}
		switch e.Type {
		case LinkDown:
			if down[k] {
				continue
			}
			down[k] = true
		case LinkUp:
			if !down[k] {
				continue
			}
			down[k] = false
		}
		out = append(out, e)
	}
	return out
}

// Compress rescales the trace onto a target window, preserving order and
// relative burst structure. The paper replays two weeks of Tier-1 events
// against an emulated network; compressing keeps simulated-time spans (and
// beacon counts) tractable while leaving orderings untouched. events must
// be sorted by At, as Synthesize and Poisson return them.
func Compress(events []Event, target vtime.Duration) []Event {
	if len(events) == 0 {
		return nil
	}
	lo := events[0].At
	hi := events[len(events)-1].At
	span := hi.Sub(lo)
	out := make([]Event, len(events))
	for i, e := range events {
		var at vtime.Time
		if span == 0 {
			at = vtime.Time(vtime.Duration(i) * target / vtime.Duration(len(events)))
		} else {
			frac := float64(e.At.Sub(lo)) / float64(span)
			at = vtime.Time(float64(target) * frac)
		}
		out[i] = Event{At: at, Type: e.Type, A: e.A, B: e.B}
	}
	// Rescaling can collapse distinct timestamps; keep the slice
	// non-decreasing and same-link events strictly increasing (at least
	// 1 µs apart) so the original causal order of a link's failures and
	// repairs survives any later time-keyed re-sort. The separation is
	// enforced per link pair across the whole slice — adjacent-only
	// checking let non-adjacent down/up pairs of one link collapse onto
	// the same microsecond, and a collapsed pair re-sorts with downs
	// before ups, replaying a repair before its failure.
	last := make(map[linkPair]vtime.Time, 16)
	for i := range out {
		if i > 0 && out[i].At < out[i-1].At {
			out[i].At = out[i-1].At
		}
		k := linkPair{out[i].A, out[i].B}
		if lt, seen := last[k]; seen && out[i].At <= lt {
			out[i].At = lt + 1
		}
		last[k] = out[i].At
	}
	return sanitize(out)
}

// linkPair keys per-link bookkeeping during compression.
type linkPair struct{ a, b int }

// Poisson generates a simple Poisson stream of single link flaps (a down
// immediately followed by an up after meanRepair on average) at the given
// rate, used by the event-rate scalability sweep (Figure 8d).
func Poisson(g *topology.Graph, rate float64, window vtime.Duration, meanRepair vtime.Duration, seed uint64) []Event {
	if rate <= 0 || len(g.Links) == 0 {
		return nil
	}
	r := rng.New(seed).Derive("poisson")
	var events []Event
	now := vtime.Time(0)
	meanGap := float64(vtime.Second) / rate
	for {
		gap := vtime.Duration(meanGap * r.ExpFloat64())
		if gap < 1 {
			gap = 1
		}
		now = now.Add(gap)
		if now > vtime.Time(window) {
			break
		}
		l := g.Links[r.Intn(len(g.Links))]
		repair := vtime.Duration(float64(meanRepair) * r.ExpFloat64())
		if repair < vtime.Millisecond {
			repair = vtime.Millisecond
		}
		events = append(events, Event{At: now, Type: LinkDown, A: l.A, B: l.B})
		events = append(events, Event{At: now.Add(repair), Type: LinkUp, A: l.A, B: l.B})
	}
	sortEvents(events)
	return sanitize(events)
}
