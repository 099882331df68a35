package defined_test

// The reference engine's FK checkpoints copy the live state into recycled
// snapshots (api.Recyclable). Recycling must be observationally invisible:
// a run whose application hides the capability, and so checkpoints through
// Clone, commits the same orders, converges to the same tables and counts
// the same Stats.

import (
	"fmt"
	"strings"
	"testing"

	"defined"
	"defined/internal/faults"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
)

// cloneFallbackApp hides api.Recyclable (and, through cloneOnlyApp,
// api.Journaled): State hands the daemon's state out wrapped in a type
// with Clone only, and Restore unwraps it.
type cloneFallbackApp struct{ cloneOnlyApp }

// cloneOnlyState is a state without CloneInto.
type cloneOnlyState struct{ api.State }

func (s cloneOnlyState) Clone() api.State { return cloneOnlyState{s.State.Clone()} }

func (a cloneFallbackApp) State() api.State { return cloneOnlyState{a.Application.State()} }

func (a cloneFallbackApp) Restore(st api.State) { a.Application.Restore(st.(cloneOnlyState).State) }

// referenceRun drives OSPF on g under the reference engine (TF/FK, no
// deferral, no lookahead) through plan and returns every node's committed
// order, the Stats and every node's final routing table.
func referenceRun(t *testing.T, g *defined.Topology, seed uint64, plan *faults.Plan, hide bool) (orders [][]string, stats string, tables []string) {
	t.Helper()
	apps := make([]defined.Application, g.N)
	daemons := make([]*ospf.Daemon, g.N)
	for i := range apps {
		daemons[i] = ospf.New(ospf.Config{})
		apps[i] = daemons[i]
		if hide {
			apps[i] = cloneFallbackApp{cloneOnlyApp{daemons[i]}}
		}
	}
	net := mustNet(t, g, apps, defined.EngineSpec{Seed: &seed, Strategy: "TF/FK",
		Deferral: ptr(false), Lookahead: ptr(false), DeliveryLog: ptr(true)})
	net.ScheduleFaults(plan)
	net.Run(plan.Horizon().Add(faults.ConvergenceSlack(g)))
	if !net.Drain() {
		t.Fatal("network failed to quiesce")
	}
	for i := 0; i < g.N; i++ {
		orders = append(orders, net.CommittedOrder(defined.NodeID(i)))
		tables = append(tables, daemons[i].DumpTable())
	}
	return orders, fmt.Sprintf("%+v", net.Stats()), tables
}

// TestRecycledCheckpointsMatchClones runs the reference engine on
// Sprintlink and Ebone, seeds 1–3, through two link flaps and one crash and
// restart, once copying checkpoints into recycled snapshots and once
// through the Clone fallback, and requires bit-identical committed orders,
// final tables and Stats.
func TestRecycledCheckpointsMatchClones(t *testing.T) {
	topos := []struct {
		name string
		mk   func() *defined.Topology
	}{{"sprintlink", defined.Sprintlink}, {"ebone", defined.Ebone}}
	for _, tp := range topos {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				g := tp.mk()
				a, b := g.Links[int(seed)*5%len(g.Links)], g.Links[int(seed)*11%len(g.Links)]
				victim := defined.NodeID(int(seed) * 7 % g.N)
				plan := faults.NewPlan().
					Link(defined.Seconds(0.3), a.A, a.B, false).
					Crash(defined.Seconds(0.5), victim).
					Link(defined.Seconds(0.6), b.A, b.B, false).
					Link(defined.Seconds(0.7), a.A, a.B, true).
					Restart(defined.Seconds(0.9), victim).
					Link(defined.Seconds(1.0), b.A, b.B, true)
				orders, stats, tables := referenceRun(t, g, seed, plan, false)
				fbOrders, fbStats, fbTables := referenceRun(t, g, seed, plan, true)
				diffOrders(t, "recycled vs clone", orders, fbOrders)
				diffTables(t, "recycled vs clone", tables, fbTables)
				if stats != fbStats {
					t.Fatalf("recycled vs clone stats differ:\n%s\n%s", stats, fbStats)
				}
				for _, want := range []string{"NodeCrashes:1", "NodeRestarts:1", "PanicCrashes:0"} {
					if !strings.Contains(stats, want) {
						t.Fatalf("run lacks %s: %s", want, stats)
					}
				}
			})
		}
	}
}
