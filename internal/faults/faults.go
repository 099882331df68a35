// Package faults implements deterministic fault injection for DEFINED
// runs: scripted or seeded-random plans of node crash/restart, network
// partition/heal and link flap faults, applied to the engine as ordinary
// driver-ordered events.
//
// Determinism is the whole design. A plan is a fixed list of (time, fault)
// pairs, scheduled up front on the engine's driver queue — the same queue
// that delivers link-change externals — so in sharded mode every fault
// executes between parallel windows at exactly the point of the committed
// order it holds in the sequential engine. Per-packet faults (loss,
// duplication) are not plan events at all: they are per-directed-link
// counter-seeded draws inside netsim (Config.DropProb/DupProb), keyed by
// (seed, link direction, wire sequence) and therefore independent of
// global send interleavings. Together these make a faulted run a pure
// function of (topology, seed, plan): bit-identically replayable under
// rollback, lookahead and any shard count, which is what lets golden
// tests pin committed orders with faults enabled (TestFaultPlanGolden).
//
// The package deliberately depends only on the engine surface it drives
// (the Engine interface) plus the topology, so tests can fake the engine
// and other substrates can reuse the plans.
package faults

import (
	"fmt"
	"sort"

	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Kind is one fault type.
type Kind int

const (
	// Crash fail-stops a node: total state loss, in-flight traffic toward
	// it dropped, unsent messages die, daemon silent until Restart.
	Crash Kind = iota
	// Restart revives a crashed node: fresh daemon Init, neighbor re-sync.
	Restart
	// LinkDown / LinkUp flip one physical link, delivering LinkChange
	// externals to both endpoints (partitions are sets of these over a
	// graph cut).
	LinkDown
	LinkUp
)

// String returns the kind's stable name (plan dumps, test diagnostics).
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Restart:
		return "restart"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	At   vtime.Time
	Kind Kind
	Node msg.NodeID // Crash / Restart
	A, B int        // LinkDown / LinkUp endpoints
}

// Plan is an ordered fault script. Build one with the chainable helpers
// (or Random) and hand it to a built network via
// defined.Network.ScheduleFaults.
type Plan struct {
	events []Event
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Crash schedules a crash fault for node n at time at.
func (p *Plan) Crash(at vtime.Time, n msg.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: Crash, Node: n})
	return p
}

// Restart schedules a restart of node n at time at.
func (p *Plan) Restart(at vtime.Time, n msg.NodeID) *Plan {
	p.events = append(p.events, Event{At: at, Kind: Restart, Node: n})
	return p
}

// Link schedules one link state flip at time at.
func (p *Plan) Link(at vtime.Time, a, b int, up bool) *Plan {
	k := LinkDown
	if up {
		k = LinkUp
	}
	p.events = append(p.events, Event{At: at, Kind: k, A: a, B: b})
	return p
}

// cutLinks returns the (a, b) pairs of g's links with exactly one endpoint
// in side, in deterministic link-index order.
func cutLinks(g *topology.Graph, side []int) [][2]int {
	in := make([]bool, g.N)
	for _, n := range side {
		in[n] = true
	}
	var cut [][2]int
	for _, l := range g.Links {
		if in[l.A] != in[l.B] {
			cut = append(cut, [2]int{l.A, l.B})
		}
	}
	return cut
}

// Partition schedules, at time at, the simultaneous cut of every link
// crossing the boundary of side — isolating side from the rest of g.
func (p *Plan) Partition(at vtime.Time, g *topology.Graph, side []int) *Plan {
	for _, ab := range cutLinks(g, side) {
		p.Link(at, ab[0], ab[1], false)
	}
	return p
}

// Heal schedules, at time at, the restoration of the same cut Partition
// takes down.
func (p *Plan) Heal(at vtime.Time, g *topology.Graph, side []int) *Plan {
	for _, ab := range cutLinks(g, side) {
		p.Link(at, ab[0], ab[1], true)
	}
	return p
}

// Events returns the plan's events sorted by time (stably: events at equal
// times keep insertion order, which is the order they will execute in).
func (p *Plan) Events() []Event {
	evs := append([]Event(nil), p.events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// Len returns the number of scheduled fault events.
func (p *Plan) Len() int { return len(p.events) }

// Horizon returns the time of the plan's last event (zero for an empty
// plan) — run at least this far, plus convergence slack, before checking
// post-heal invariants.
func (p *Plan) Horizon() vtime.Time {
	var h vtime.Time
	for _, ev := range p.events {
		if ev.At > h {
			h = ev.At
		}
	}
	return h
}

// Engine is the substrate surface a plan drives — implemented by
// *rollback.Engine. Faults package code never reaches deeper, so tests
// can fake it.
type Engine interface {
	CrashNode(n msg.NodeID)
	RestartNode(n msg.NodeID)
	InjectLinkChange(a, b int, up bool) error
}

// Scheduler registers fn to run at virtual time at on the engine's driver
// queue (defined.Network.At has this shape).
type Scheduler func(at vtime.Time, fn func())

// Schedule registers every plan event with the engine, up front: fault
// events then execute as ordinary driver events, serially, between
// parallel windows — the property every determinism claim rests on.
func (p *Plan) Schedule(e Engine, schedule Scheduler) {
	for _, ev := range p.Events() {
		ev := ev
		switch ev.Kind {
		case Crash:
			schedule(ev.At, func() { e.CrashNode(ev.Node) })
		case Restart:
			schedule(ev.At, func() { e.RestartNode(ev.Node) })
		case LinkDown, LinkUp:
			schedule(ev.At, func() { _ = e.InjectLinkChange(ev.A, ev.B, ev.Kind == LinkUp) })
		}
	}
}

// RandomConfig tunes Random.
type RandomConfig struct {
	// Start..End is the window faults fire in. End must exceed Start.
	Start, End vtime.Time
	// Crashes is the number of crash/restart pairs (default 2).
	Crashes int
	// Flaps is the number of single-link down/up pairs (default 2).
	Flaps int
	// Partitions is the number of partition/heal pairs (default 1); each
	// cuts a random one-or-two-hop ball around a random center.
	Partitions int
	// MinRepair is the minimum downtime before the matching repair
	// (default 500 ms) — long enough for failure detection to matter.
	MinRepair vtime.Duration
}

func (c *RandomConfig) fillDefaults() {
	if c.Crashes == 0 {
		c.Crashes = 2
	}
	if c.Flaps == 0 {
		c.Flaps = 2
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.MinRepair <= 0 {
		c.MinRepair = 500 * vtime.Millisecond
	}
}

// Random generates a seeded fault plan over g: every draw comes from a
// stream derived from seed alone, so the same (g, seed, cfg) always yields
// the same plan. Every fault is paired with its repair inside the window,
// so the network is whole again at End — the invariant checker's post-heal
// pass depends on that.
func Random(g *topology.Graph, seed uint64, cfg RandomConfig) *Plan {
	cfg.fillDefaults()
	src := rng.New(seed).Derive("fault-plan")
	p := NewPlan()
	span := cfg.End.Sub(cfg.Start)
	if span <= cfg.MinRepair {
		return p
	}
	// A fault fires in [Start, End-MinRepair); its repair lands MinRepair
	// plus a draw of the remaining slack later, capped at End.
	drawPair := func() (down, up vtime.Time) {
		down = cfg.Start.Add(vtime.Duration(src.Float64() * float64(span-cfg.MinRepair)))
		up = down.Add(cfg.MinRepair + vtime.Duration(src.Float64()*float64(cfg.End.Sub(down)-cfg.MinRepair)))
		if up > cfg.End {
			up = cfg.End
		}
		return down, up
	}
	for i := 0; i < cfg.Crashes; i++ {
		n := msg.NodeID(src.Intn(g.N))
		down, up := drawPair()
		p.Crash(down, n).Restart(up, n)
	}
	for i := 0; i < cfg.Flaps; i++ {
		l := g.Links[src.Intn(len(g.Links))]
		down, up := drawPair()
		p.Link(down, l.A, l.B, false).Link(up, l.A, l.B, true)
	}
	for i := 0; i < cfg.Partitions; i++ {
		side := randomBall(g, src)
		down, up := drawPair()
		p.Partition(down, g, side).Heal(up, g, side)
	}
	return p
}

// randomBall picks a random center and returns its BFS ball of radius 1 or
// 2 — a connected side for a partition cut. If the ball swallows the whole
// graph the side shrinks back to the center alone (a cut must leave both
// sides nonempty).
func randomBall(g *topology.Graph, src *rng.Source) []int {
	center := src.Intn(g.N)
	radius := 1 + src.Intn(2)
	side := []int{center}
	seen := make([]bool, g.N)
	seen[center] = true
	frontier := []int{center}
	for r := 0; r < radius; r++ {
		var next []int
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					side = append(side, v)
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	if len(side) == g.N {
		return side[:1]
	}
	sort.Ints(side)
	return side
}
