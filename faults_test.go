package defined_test

// Golden and robustness tests for the fault-injection subsystem. The
// determinism contract under faults is the same one the shard goldens
// enforce fault-free: a faulted run is a pure function of (topology,
// seed, plan, engine config), so committed delivery orders, Stats
// counters and final routing tables must be bit-identical across shard
// counts. On top of determinism, every faulted run must degrade
// gracefully: the invariant pass (settle violations, pool lifecycle,
// message-reference leaks, window bounds, and — on loss-free runs —
// post-heal route coherence) has to come back clean.

import (
	"fmt"
	"testing"

	"defined"
	"defined/internal/faults"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
)

// faultRun drives one OSPF run under a fault plan plus per-link loss and
// duplication, to the plan's horizon plus convergence slack, and returns
// the committed orders, stats string, routing tables and network.
func faultRun(t *testing.T, g *defined.Topology, seed uint64, plan *faults.Plan, loss, dup float64, extra ...engineMod) ([][]string, string, []string, *defined.Network) {
	t.Helper()
	apps := make([]defined.Application, g.N)
	daemons := make([]*ospf.Daemon, g.N)
	for i := range apps {
		daemons[i] = ospf.New(ospf.Config{})
		apps[i] = daemons[i]
	}
	eng := defined.EngineSpec{
		Seed:        &seed,
		Strategy:    "TM/MI",
		DeliveryLog: ptr(true),
		PerLinkLoss: &loss,
		Duplication: &dup,
	}
	for _, mod := range extra {
		mod(&eng)
	}
	net := mustNet(t, g, apps, eng)
	net.ScheduleFaults(plan)
	net.Run(plan.Horizon().Add(faults.ConvergenceSlack(g)))
	if !net.Drain() {
		t.Fatal("network failed to quiesce under faults (wedged hold or runaway speculation)")
	}
	var orders [][]string
	var tables []string
	for i := 0; i < g.N; i++ {
		orders = append(orders, net.CommittedOrder(defined.NodeID(i)))
		tables = append(tables, daemons[i].DumpTable())
	}
	return orders, fmt.Sprintf("%+v", net.Stats()), tables, net
}

// ospfRouteReader adapts a network's OSPF daemons to the invariant
// checker's route-coherence pass.
func ospfRouteReader(net *defined.Network) faults.RouteReader {
	return func(src, dst defined.NodeID) (int64, bool) {
		r, ok := net.App(src).(*ospf.Daemon).RoutingTable()[dst]
		return int64(r.Cost), ok
	}
}

// mustDegradeGracefully runs the full invariant pass (including route
// coherence through the given reader, ospfRouteReader when every app is a
// bare daemon) and fails the test on any violation.
func mustDegradeGracefully(t *testing.T, what string, net *defined.Network, routes faults.RouteReader) *faults.Report {
	t.Helper()
	rep := net.CheckFaults(faults.CheckConfig{Routes: routes})
	if err := rep.Err(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return rep
}

// TestFaultPlanGolden is the fault-injection determinism golden: a
// seeded-random plan (crashes/restarts, link flaps, a partition and heal)
// composed with per-link loss and duplication must commit bit-identical
// executions — committed orders, full Stats string, routing tables —
// across shard counts {1, 4}, at lookahead off and at lookahead on,
// across three seeds and both evaluation topology families, and every
// run must pass the graceful-degradation invariant pass. A loss-free
// companion run additionally pins post-heal route coherence: with the
// plan's faults alone (every crash restarted, every cut healed) the
// network must re-converge to Dijkstra ground truth. The lossy matrix
// skips that one check by design — the OSPF daemon floods without
// acks or retransmissions, so a single unlucky (but deterministic)
// loss draw on a heal-time LSA can legitimately strand a stale route.
//
// The comparison axis is deliberately the shard count at fixed
// speculation config, not the lookahead toggle: a crash fires at a fixed
// virtual time and cuts whatever is physically in flight or parked at
// that instant, and how long an arrival sits held is exactly what
// lookahead changes — so, unlike the fault-free goldens, faulted
// committed orders are per-speculation-config. What must never move them
// is parallelism.
func TestFaultPlanGolden(t *testing.T) {
	topos := []struct {
		name string
		mk   func(seed uint64) *defined.Topology
	}{
		{"sprintlink", func(uint64) *defined.Topology { return defined.Sprintlink() }},
		{"brite20", func(seed uint64) *defined.Topology { return defined.Brite(20, 2, 9000+seed) }},
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, tp := range topos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				g := tp.mk(seed)
				plan := faults.Random(g, seed, faults.RandomConfig{
					Start: defined.Seconds(0.3), End: defined.Seconds(2),
				})
				if plan.Len() == 0 {
					t.Fatal("random plan is empty — the campaign tests nothing")
				}
				// Loss-free companion: post-heal route coherence golden.
				_, _, _, cleanNet := faultRun(t, tp.mk(seed), seed, plan, 0, 0)
				mustDegradeGracefully(t, "loss-free route coherence", cleanNet, ospfRouteReader(cleanNet))
				for _, la := range []bool{false, true} {
					var refOrders [][]string
					var refTables []string
					var refStats string
					for _, shards := range []int{1, 4} {
						orders, stats, tables, net := faultRun(t, tp.mk(seed), seed, plan, 0.002, 0.002,
							func(e *defined.EngineSpec) { e.Lookahead = &la }, withShards(shards))
						what := fmt.Sprintf("lookahead=%v shards=%d", la, shards)
						st := net.Stats()
						if st.NodeCrashes == 0 || st.NodeRestarts == 0 {
							t.Fatalf("%s: plan executed no crash/restart faults: %+v", what, st)
						}
						rep := mustDegradeGracefully(t, what, net, nil)
						if len(rep.CrashedNodes) != 0 {
							t.Fatalf("%s: nodes still crashed after a fully-paired plan: %v", what, rep.CrashedNodes)
						}
						if refOrders == nil {
							refOrders, refTables, refStats = orders, tables, stats
							continue
						}
						diffOrders(t, what+" vs 1-shard", refOrders, orders)
						diffTables(t, what+" vs 1-shard", refTables, tables)
						if stats != refStats {
							t.Fatalf("%s: stats diverged across shard counts under faults:\n%s\nvs\n%s",
								what, stats, refStats)
						}
					}
				}
			})
		}
	}
}

// TestLookaheadReleaseUnderFaults stresses the interaction the lookahead
// hold is most exposed to: a per-link promise whose covering arrival
// never comes, because the message was dropped by per-link loss or its
// sender crashed mid-plan. Heavy loss plus a crash/restart plan with
// lookahead's exact holds enabled must still quiesce (the anti-message
// and idle-horizon backstops release every parked arrival), keep the
// history windows bounded, stay bit-identical between the sequential and
// the 4-shard engine, and pass the invariant pass. The lookahead-off run
// establishes that the stress plan itself degrades gracefully either way.
func TestLookaheadReleaseUnderFaults(t *testing.T) {
	g := defined.Sprintlink()
	const seed = 7
	plan := faults.Random(g, seed, faults.RandomConfig{
		Start: defined.Seconds(0.3), End: defined.Seconds(2), Crashes: 3,
	})
	const loss, dup = 0.05, 0.01

	_, _, _, offNet := faultRun(t, g, seed, plan, loss, dup)
	mustDegradeGracefully(t, "lookahead-off", offNet, nil)

	onOrders, _, onTables, onNet := faultRun(t, defined.Sprintlink(), seed, plan, loss, dup,
		withLookahead)
	rep := mustDegradeGracefully(t, "lookahead-on", onNet, nil)
	st := onNet.Stats()
	if st.LookaheadHolds == 0 {
		t.Fatal("lookahead never held an arrival — the stress scenario is inert")
	}
	if st.SettleViolations != 0 {
		t.Fatalf("settle violations under faulted lookahead: %+v", st)
	}
	if rep.WindowHighWater == 0 {
		t.Fatal("window high-water mark never recorded — the wedge detector is blind")
	}

	shOrders, _, shTables, shNet := faultRun(t, defined.Sprintlink(), seed, plan, loss, dup,
		withLookahead, withShards(4))
	diffOrders(t, "lookahead 4-shard vs sequential under faults", shOrders, onOrders)
	diffTables(t, "lookahead 4-shard vs sequential under faults", shTables, onTables)
	mustDegradeGracefully(t, "lookahead 4-shard", shNet, nil)
}

// panicApp wraps a daemon with a fuse that blows on the n-th handled
// message: the handler panics mid-delivery, modeling a daemon bug. The
// embedded interface deliberately hides the Journaled capability (the
// clone-fallback path, like cloneOnlyApp), so the recovery test covers
// the checkpoint mode a buggy third-party daemon would actually run in.
type panicApp struct {
	api.Application
	fuse *int
}

func (p panicApp) HandleMessage(m *defined.Message) []defined.Out {
	if *p.fuse > 0 {
		*p.fuse--
		if *p.fuse == 0 {
			panic("injected daemon bug")
		}
	}
	return p.Application.HandleMessage(m)
}

// TestPanicQuarantineGolden injects a daemon panic mid-run and requires
// the substrate to convert it into a deterministic crash fault: the run
// completes (no propagated panic, no wedge), the node is quarantined and
// then revived by a scheduled restart, the whole network re-converges to
// coherent routes, and the execution — panic included — is bit-identical
// between the sequential and the 4-shard engine.
func TestPanicQuarantineGolden(t *testing.T) {
	const (
		seed    = 3
		victim  = defined.NodeID(5)
		fuseLen = 25
		restart = 3 // seconds
	)
	plan := faults.NewPlan().Restart(defined.Seconds(restart), victim)

	run := func(shards int) ([][]string, string, []string, *defined.Network, faults.RouteReader) {
		g := defined.Sprintlink()
		fuse := fuseLen
		apps := make([]defined.Application, g.N)
		daemons := make([]*ospf.Daemon, g.N)
		for i := range apps {
			daemons[i] = ospf.New(ospf.Config{})
			if defined.NodeID(i) == victim {
				apps[i] = panicApp{daemons[i], &fuse}
			} else {
				apps[i] = daemons[i]
			}
		}
		net := mustNet(t, g, apps, defined.EngineSpec{
			Seed: ptr(uint64(seed)), Strategy: "TM/MI", DeliveryLog: ptr(true), Shards: &shards})
		net.ScheduleFaults(plan)
		net.Run(plan.Horizon().Add(faults.ConvergenceSlack(g)))
		if !net.Drain() {
			t.Fatal("network failed to quiesce after a recovered daemon panic")
		}
		var orders [][]string
		var tables []string
		for i := 0; i < g.N; i++ {
			orders = append(orders, net.CommittedOrder(defined.NodeID(i)))
			tables = append(tables, daemons[i].DumpTable())
		}
		// The victim is wrapped, so the route reader goes through the
		// daemon slice instead of net.App type assertions.
		routes := func(src, dst defined.NodeID) (int64, bool) {
			r, ok := daemons[src].RoutingTable()[dst]
			return int64(r.Cost), ok
		}
		return orders, fmt.Sprintf("%+v", net.Stats()), tables, net, routes
	}

	orders, stats, tables, net, routes := run(0)
	st := net.Stats()
	if st.PanicCrashes == 0 {
		t.Fatal("the injected panic never fired")
	}
	if st.NodeRestarts == 0 {
		t.Fatal("the scheduled restart never revived the quarantined node")
	}
	if net.Crashed(victim) {
		t.Fatal("victim still quarantined after its restart")
	}
	rep := mustDegradeGracefully(t, "panic recovery", net, routes)
	if rep.SettleViolations != 0 || rep.PoolViolations != 0 {
		t.Fatalf("violations after panic recovery: %+v", rep)
	}

	shOrders, shStats, shTables, shNet, shRoutes := run(4)
	diffOrders(t, "panic 4-shard vs sequential", shOrders, orders)
	diffTables(t, "panic 4-shard vs sequential", shTables, tables)
	if shStats != stats {
		t.Fatalf("panic 4-shard vs sequential stats differ:\n%s\nvs\n%s", shStats, stats)
	}
	mustDegradeGracefully(t, "panic recovery (4-shard)", shNet, shRoutes)
}
