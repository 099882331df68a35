package defined_test

// The composite goldens: scenarios/mixed-smoke.json is the smallest plan
// with multi-protocol nodes, and they hold its composites to what
// TestCrossModeGolden and TestFaultPlanGolden hold bare daemons to.

import (
	"fmt"
	"strings"
	"testing"

	"defined"
	"defined/internal/checkpoint"
	"defined/internal/faults"
	"defined/internal/scenario"
)

// compositeRun runs the committed mixed-protocol scenario — borders are
// OSPF+BGP composites, gateways OSPF+RIP — through NewNetwork, so the
// plan-built applications can be wrapped (hideJournal forces the clone
// fallback on every node, composites included), and returns committed
// orders, the Stats string, every node's final OSPF/RIP/BGP tables and
// the network. restart adds a fault plan that crashes and restarts one
// border and one gateway mid-run.
func compositeRun(t *testing.T, hideJournal, restart bool, mods ...engineMod) (orders [][]string, stats string, tables []string, net *defined.Network) {
	t.Helper()
	p, err := loadScenarioFile(t, "scenarios/mixed-smoke.json").Expand()
	if err != nil {
		t.Fatal(err)
	}
	h := p.Hier
	inner := p.Apps()
	apps := make([]defined.Application, len(inner))
	for i, a := range inner {
		apps[i] = a
		if hideJournal {
			apps[i] = cloneOnlyApp{a}
		}
	}
	eng := defined.EngineSpec{Seed: ptr(uint64(42)), DeliveryLog: ptr(true)}
	for _, mod := range mods {
		mod(&eng)
	}
	net = mustNet(t, p.Graph, apps, eng)
	if restart {
		border := defined.NodeID(h.Borders[0])
		gateway := defined.NodeID(-1)
		for _, gw := range h.Gateways {
			if gw >= 0 && defined.NodeID(gw) != border {
				gateway = defined.NodeID(gw)
				break
			}
		}
		if scenario.BGP(inner[border]) == nil || scenario.RIP(inner[gateway]) == nil {
			t.Fatalf("border %d / gateway %d are not the composites this golden is about", border, gateway)
		}
		net.ScheduleFaults(faults.NewPlan().
			Crash(defined.Seconds(4), border).Crash(defined.Seconds(5), gateway).
			Restart(defined.Seconds(5.5), border).Restart(defined.Seconds(7), gateway))
	}
	for _, ev := range p.Events { // as NewNetworkFromPlan schedules them
		if ev.IsLink {
			net.At(ev.At, func() { _ = net.InjectLinkChange(ev.A, ev.B, ev.Up) })
		} else {
			net.At(ev.At, func() { net.InjectExternal(ev.Node, ev.Ev) })
		}
	}
	if !net.RunPlan(p) {
		t.Fatal("mixed-protocol scenario failed to quiesce within its horizon")
	}
	mustDegradeGracefully(t, "composite run", net, nil)
	for i, a := range inner {
		orders = append(orders, net.CommittedOrder(defined.NodeID(i)))
		var b strings.Builder
		if d := scenario.OSPF(a); d != nil {
			b.WriteString(d.DumpTable())
		}
		if d := scenario.RIP(a); d != nil {
			b.WriteString(d.DumpTable())
		}
		if d := scenario.BGP(a); d != nil {
			for as := range h.Borders {
				best, ok := d.Best(fmt.Sprintf("as%d", as))
				fmt.Fprintf(&b, "as%d %v %+v\n", as, ok, best)
			}
		}
		tables = append(tables, b.String())
	}
	return orders, fmt.Sprintf("%+v", net.Stats()), tables, net
}

// TestCompositeCrossModeGolden is TestCrossModeGolden for multi-protocol
// nodes: the composite's journal (a tuple of its parts' marks) must be as
// observationally invisible as a bare daemon's. Journaled ≡ clone
// fallback in committed orders, the full Stats string and every final
// OSPF/RIP/BGP table; TM/FK ≡ TM/MI in orders and tables; shards {0, 2}
// identical in all three.
func TestCompositeCrossModeGolden(t *testing.T) {
	fk := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.FK}
	miOrders, miStats, miTables, miNet := compositeRun(t, false, false)
	if miNet.Stats().Rollbacks == 0 {
		t.Fatal("the scenario never rolled back — no composite journal was ever rewound")
	}

	fbOrders, fbStats, fbTables, _ := compositeRun(t, true, false)
	diffOrders(t, "journal vs fallback", miOrders, fbOrders)
	diffTables(t, "journal vs fallback", miTables, fbTables)
	if miStats != fbStats {
		t.Fatalf("journal vs fallback stats differ:\n%s\n%s", miStats, fbStats)
	}

	fkOrders, _, fkTables, _ := compositeRun(t, false, false,
		func(e *defined.EngineSpec) { e.Strategy = fk.String() })
	diffOrders(t, "FK vs MI", fkOrders, miOrders)
	diffTables(t, "FK vs MI", fkTables, miTables)

	shOrders, shStats, shTables, _ := compositeRun(t, false, false, withShards(2))
	diffOrders(t, "2-shard vs sequential", shOrders, miOrders)
	diffTables(t, "2-shard vs sequential", shTables, miTables)
	if shStats != miStats {
		t.Fatalf("2-shard vs sequential stats differ:\n%s\n%s", shStats, miStats)
	}
}

// TestCompositeRestartGolden crashes and restarts a border and a gateway
// mid-run: quarantine compacts the composite journal to its head, restart
// re-Inits with the journal enabled and compacts again, and the run goes
// on checkpointing by mark. The journaled run must equal the clone-
// fallback run bit for bit, sequential and 2-shard, with the fault
// invariant pass (leak oracle included) clean on each.
func TestCompositeRestartGolden(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			jOrders, jStats, jTables, jNet := compositeRun(t, false, true, withShards(shards))
			if st := jNet.Stats(); st.NodeCrashes != 2 || st.NodeRestarts != 2 {
				t.Fatalf("plan did not crash and restart both composites: %+v", st)
			}
			fOrders, fStats, fTables, _ := compositeRun(t, true, true, withShards(shards))
			diffOrders(t, "journal vs fallback", jOrders, fOrders)
			diffTables(t, "journal vs fallback", jTables, fTables)
			if jStats != fStats {
				t.Fatalf("journal vs fallback stats differ:\n%s\n%s", jStats, fStats)
			}
		})
	}
}
