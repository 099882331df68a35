package faults

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"defined/internal/msg"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/vtime"
)

func sec(s float64) vtime.Time { return vtime.Time(s * float64(vtime.Second)) }

// TestRandomDeterministic pins the plan generator's contract: the plan is
// a pure function of (graph, seed, config) — same inputs, same events —
// and different seeds draw genuinely different plans.
func TestRandomDeterministic(t *testing.T) {
	g := topology.Sprintlink()
	cfg := RandomConfig{Start: sec(1), End: sec(4)}
	a := Random(g, 7, cfg).Events()
	b := Random(g, 7, cfg).Events()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\nvs\n%v", a, b)
	}
	c := Random(g, 8, cfg).Events()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

// TestRandomPairedAndBounded checks the structural guarantees Random
// promises: every fault has its repair, every event lands inside the
// window, and Horizon reports the last event.
func TestRandomPairedAndBounded(t *testing.T) {
	g := topology.Sprintlink()
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := RandomConfig{Start: sec(1), End: sec(4)}
		p := Random(g, seed, cfg)
		// The same node or link may be hit by overlapping pairs (two
		// crash draws can pick one node; a flap and a partition can share
		// a link), so pairing is counted, not keyed by time: every down
		// has a matching later up, and the counts return to zero.
		var last vtime.Time
		crashed := map[msg.NodeID]int{}
		linkDown := map[[2]int]int{}
		for _, ev := range p.Events() {
			if ev.At < cfg.Start || ev.At > cfg.End {
				t.Fatalf("seed %d: event %+v outside window [%v, %v]", seed, ev, cfg.Start, cfg.End)
			}
			if ev.At < last {
				t.Fatalf("seed %d: Events() not sorted", seed)
			}
			last = ev.At
			switch ev.Kind {
			case Crash:
				crashed[ev.Node]++
			case Restart:
				if crashed[ev.Node] == 0 {
					t.Fatalf("seed %d: restart of %d without earlier crash", seed, ev.Node)
				}
				crashed[ev.Node]--
			case LinkDown:
				linkDown[[2]int{ev.A, ev.B}]++
			case LinkUp:
				if linkDown[[2]int{ev.A, ev.B}] == 0 {
					t.Fatalf("seed %d: link-up %d-%d without earlier link-down", seed, ev.A, ev.B)
				}
				linkDown[[2]int{ev.A, ev.B}]--
			}
		}
		for n, c := range crashed {
			if c != 0 {
				t.Fatalf("seed %d: node %d crashed %d more times than restarted", seed, n, c)
			}
		}
		for l, c := range linkDown {
			if c != 0 {
				t.Fatalf("seed %d: link %v downed %d more times than healed", seed, l, c)
			}
		}
		if got := p.Horizon(); got != last {
			t.Fatalf("seed %d: Horizon() = %v, last event at %v", seed, got, last)
		}
	}
}

// TestCutLinks checks the partition cut on a line graph 0-1-2-3: isolating
// {0, 1} must cut exactly the middle link, and Heal must restore the same
// set Partition takes down.
func TestCutLinks(t *testing.T) {
	g := topology.Line(4, vtime.Millisecond)
	side := []int{0, 1}
	cut := cutLinks(g, side)
	if len(cut) != 1 || cut[0] != [2]int{1, 2} {
		t.Fatalf("cutLinks(line4, {0,1}) = %v, want [[1 2]]", cut)
	}
	p := NewPlan().Partition(sec(1), g, side).Heal(sec(2), g, side)
	evs := p.Events()
	if len(evs) != 2 {
		t.Fatalf("partition+heal of a single-link cut: %d events, want 2", len(evs))
	}
	if evs[0].Kind != LinkDown || evs[1].Kind != LinkUp ||
		evs[0].A != 1 || evs[0].B != 2 || evs[1].A != 1 || evs[1].B != 2 {
		t.Fatalf("partition+heal events wrong: %v", evs)
	}

	// A cut side containing everything-but-one-node severs that node's
	// links only.
	cut = cutLinks(g, []int{0, 1, 2})
	if len(cut) != 1 || cut[0] != [2]int{2, 3} {
		t.Fatalf("cutLinks(line4, {0,1,2}) = %v, want [[2 3]]", cut)
	}
}

// fakeEngine records Schedule's dispatch calls as strings.
type fakeEngine struct{ calls []string }

func (f *fakeEngine) CrashNode(n msg.NodeID) { f.calls = append(f.calls, fmt.Sprintf("crash %d", n)) }
func (f *fakeEngine) RestartNode(n msg.NodeID) {
	f.calls = append(f.calls, fmt.Sprintf("restart %d", n))
}
func (f *fakeEngine) InjectLinkChange(a, b int, up bool) error {
	f.calls = append(f.calls, fmt.Sprintf("link %d-%d %v", a, b, up))
	return nil
}

// TestScheduleDispatch drives Schedule against a fake engine and a
// scheduler that runs callbacks in registration order, checking every
// event dispatches to the right engine call — and that registration order
// is the plan's sorted time order regardless of insertion order.
func TestScheduleDispatch(t *testing.T) {
	p := NewPlan().
		Restart(sec(3), 5).
		Link(sec(2), 1, 2, false).
		Crash(sec(1), 5).
		Link(sec(4), 1, 2, true)
	e := &fakeEngine{}
	var ats []vtime.Time
	p.Schedule(e, func(at vtime.Time, fn func()) {
		ats = append(ats, at)
		fn()
	})
	want := []string{"crash 5", "link 1-2 false", "restart 5", "link 1-2 true"}
	if !reflect.DeepEqual(e.calls, want) {
		t.Fatalf("dispatch order %v, want %v", e.calls, want)
	}
	if !sort.SliceIsSorted(ats, func(i, j int) bool { return ats[i] < ats[j] }) {
		t.Fatalf("Schedule registered events out of time order: %v", ats)
	}
}

// TestCheckReportsPoolLeak shows the run-time pool oracle biting — it is
// the only check on paired Retain/Release: one pooled message checked out
// of a quiescent engine's pool and never released is a leak Check names,
// and one Release too many (tallied, not a panic, under poison) is a
// lifecycle violation.
func TestCheckReportsPoolLeak(t *testing.T) {
	g := topology.Ebone()
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	e := rollback.New(g, apps, rollback.EngineSpec{Seed: ptr[uint64](7), Poison: ptr(true)})
	e.Run(sec(1))
	e.RunQuiescent(1_000_000)
	if rep := Check(e, g, CheckConfig{}); !rep.Ok() || rep.PoolLive == 0 {
		t.Fatalf("healthy quiescent run: %v, PoolLive=%d (want windows still holding messages)", rep.Err(), rep.PoolLive)
	}

	leaked := e.Sim().Pool().Get()
	rep := Check(e, g, CheckConfig{})
	if rep.PoolLive != rep.HeldMessages+1 {
		t.Errorf("PoolLive=%d HeldMessages=%d, want exactly one unaccounted message", rep.PoolLive, rep.HeldMessages)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "pool leak") {
		t.Errorf("one leaked message: Check reported %v, want a pool leak", err)
	}

	leaked.Release()
	if err := Check(e, g, CheckConfig{}).Err(); err != nil {
		t.Fatalf("after releasing it: %v", err)
	}
	leaked.Release()
	if err := Check(e, g, CheckConfig{}).Err(); err == nil || !strings.Contains(err.Error(), "pool lifecycle violations = 1") {
		t.Errorf("one Release too many: Check reported %v, want one lifecycle violation", err)
	}
}

func ptr[T any](v T) *T { return &v }
