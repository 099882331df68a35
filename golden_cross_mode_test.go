package defined_test

// Cross-mode golden tests for the checkpoint implementations: FK (full
// clone) is the reference, MI (undo journal) the optimized path, and the
// clone fallback is MI's behaviour for applications without the journal
// capability. The determinism theorem says committed delivery orders
// depend only on the external events — so FK and MI must commit identical
// orders even though their virtual rollback costs differ — and the journal
// must be *observationally invisible*: an MI run with journaling apps must
// match an MI run with the capability hidden in every counter and metric.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"defined"
	"defined/internal/checkpoint"
	"defined/internal/experiments"
	"defined/internal/faults"
	"defined/internal/metrics"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/vtime"
)

// cloneOnlyApp hides the Journaled capability behind an embedded
// interface, forcing the engine's clone fallback even in MI mode. Only
// Journaled is hidden: the RecomputeCached capability is forwarded, so the
// engine's aggregated cache counters still match the unwrapped run (the
// cache itself is mode-independent — identical executions produce
// identical hit/miss/skip counts either way).
type cloneOnlyApp struct{ api.Application }

// RouteCacheStats forwards api.RecomputeCached.
func (c cloneOnlyApp) RouteCacheStats() api.RouteCacheStats {
	if rc, ok := c.Application.(api.RecomputeCached); ok {
		return rc.RouteCacheStats()
	}
	return api.RouteCacheStats{}
}

// SetRouteCaching forwards api.RecomputeCached.
func (c cloneOnlyApp) SetRouteCaching(on bool) {
	if rc, ok := c.Application.(api.RecomputeCached); ok {
		rc.SetRouteCaching(on)
	}
}

// goldenRun drives one link-flap scenario on g and returns every node's
// committed delivery order, the engine stats, every node's final routing
// table, and the network itself (for pool/counter inspection).
func goldenRun(g *defined.Topology, seed uint64, strat checkpoint.Strategy, hideJournal bool, extra ...engineMod) (orders [][]string, stats string, tables []string, net *defined.Network) {
	apps := make([]defined.Application, g.N)
	daemons := make([]*ospf.Daemon, g.N)
	for i := range apps {
		daemons[i] = ospf.New(ospf.Config{})
		if hideJournal {
			apps[i] = cloneOnlyApp{daemons[i]}
		} else {
			apps[i] = daemons[i]
		}
	}
	eng := defined.EngineSpec{Seed: &seed, Strategy: strat.String(), DeliveryLog: ptr(true)}
	for _, mod := range extra {
		mod(&eng)
	}
	var err error
	net, err = defined.NewNetwork(g, apps, eng)
	if err != nil {
		panic(err)
	}
	l := g.Links[0]
	net.At(vtime.Time(300*vtime.Millisecond), func() { _ = net.InjectLinkChange(l.A, l.B, false) })
	net.At(vtime.Time(700*vtime.Millisecond), func() { _ = net.InjectLinkChange(l.A, l.B, true) })
	net.Run(vtime.Time(1200 * vtime.Millisecond))
	net.Drain()
	for i := 0; i < g.N; i++ {
		orders = append(orders, net.CommittedOrder(defined.NodeID(i)))
		tables = append(tables, daemons[i].DumpTable())
	}
	return orders, fmt.Sprintf("%+v", net.Stats()), tables, net
}

func diffOrders(t *testing.T, what string, a, b [][]string) {
	t.Helper()
	for n := range a {
		if len(a[n]) != len(b[n]) {
			t.Fatalf("%s: node %d committed %d vs %d deliveries", what, n, len(a[n]), len(b[n]))
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				t.Fatalf("%s: node %d delivery %d: %s vs %s", what, n, i, a[n][i], b[n][i])
			}
		}
	}
}

func diffTables(t *testing.T, what string, a, b []string) {
	t.Helper()
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("%s: node %d routing tables differ:\n%s\nvs\n%s", what, n, a[n], b[n])
		}
	}
}

// TestCrossModeGolden checks, across three seeds and both evaluation
// topology families (Fig6's Sprintlink, Fig8's BRITE):
//
//  1. journal exactness — MI with journaling apps is bit-identical to MI
//     through the clone fallback: same committed orders, same Stats
//     counters (deliveries, rollbacks, antis, lazy reuses, ...), same
//     final routing tables;
//  2. cross-mode determinism — FK and MI commit identical delivery orders
//     and converge to identical routing tables, even though their
//     rollback cost models differ;
//  3. deferral invisibility — the engine-default arrival deferral and an
//     explicitly disabled deferral commit identical orders and converge
//     to identical tables, even though the deferred run rolls back far
//     less (the rollback-avoidance knobs may only move speculation
//     dynamics, never the committed execution).
func TestCrossModeGolden(t *testing.T) {
	fk := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.FK}
	mi := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.MI}
	topos := []struct {
		name string
		mk   func(seed uint64) *defined.Topology
	}{
		{"sprintlink", func(uint64) *defined.Topology { return defined.Sprintlink() }},
		{"brite20", func(seed uint64) *defined.Topology { return defined.Brite(20, 2, 9000+seed) }},
	}
	for _, tp := range topos {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				miOrders, miStats, miTables, _ := goldenRun(tp.mk(seed), seed, mi, false)
				if !strings.Contains(miStats, "SettleViolations:0") {
					t.Fatalf("adaptive settle bound violated: %s", miStats)
				}

				fbOrders, fbStats, fbTables, _ := goldenRun(tp.mk(seed), seed, mi, true)
				diffOrders(t, "journal vs fallback", miOrders, fbOrders)
				diffTables(t, "journal vs fallback", miTables, fbTables)
				if miStats != fbStats {
					t.Fatalf("journal vs fallback stats differ:\n%s\n%s", miStats, fbStats)
				}

				fkOrders, _, fkTables, _ := goldenRun(tp.mk(seed), seed, fk, false)
				diffOrders(t, "FK vs MI", fkOrders, miOrders)
				diffTables(t, "FK vs MI", fkTables, miTables)

				ndOrders, _, ndTables, _ := goldenRun(tp.mk(seed), seed, mi, false,
					func(e *defined.EngineSpec) { e.Deferral = ptr(false) })
				diffOrders(t, "defer-on vs defer-off", miOrders, ndOrders)
				diffTables(t, "defer-on vs defer-off", miTables, ndTables)
			})
		}
	}
}

// TestMessageLifecycleGolden runs the golden cross-mode workload (three
// seeds, both evaluation topology families) under three wire-message
// lifecycles — refcount-off (unmanaged heap messages, the pre-refcount
// reference), refcount-on (the pooled default), and refcount-on with
// poison mode — and requires:
//
//  1. lifecycle invisibility — committed delivery orders, Stats counters
//     and final routing tables are bit-identical across all three
//     (pooling may move allocations, never execution);
//  2. zero use-after-release — the poison sweep (scribbled, quarantined
//     released messages; any stale touch panics) completes with zero
//     recorded violations.
func TestMessageLifecycleGolden(t *testing.T) {
	mi := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.MI}
	topos := []struct {
		name string
		mk   func(seed uint64) *defined.Topology
	}{
		{"sprintlink", func(uint64) *defined.Topology { return defined.Sprintlink() }},
		{"brite20", func(seed uint64) *defined.Topology { return defined.Brite(20, 2, 9000+seed) }},
	}
	for _, tp := range topos {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				offOrders, offStats, offTables, _ := goldenRun(tp.mk(seed), seed, mi, false,
					func(e *defined.EngineSpec) { e.MessagePool = ptr(false) })

				onOrders, onStats, onTables, _ := goldenRun(tp.mk(seed), seed, mi, false)
				diffOrders(t, "refcount-on vs refcount-off", onOrders, offOrders)
				diffTables(t, "refcount-on vs refcount-off", onTables, offTables)
				if onStats != offStats {
					t.Fatalf("refcount-on vs refcount-off stats differ:\n%s\n%s", onStats, offStats)
				}
				if !strings.Contains(onStats, "ReflectFallbacks:0") {
					t.Fatalf("lazy cancellation fell back to reflection: %s", onStats)
				}

				pOrders, pStats, pTables, pnet := goldenRun(tp.mk(seed), seed, mi, false,
					func(e *defined.EngineSpec) { e.Poison = ptr(true) })
				if v := pnet.MessagePool().Violations(); v != 0 {
					t.Fatalf("poison sweep: %d use-after-release violations, want 0", v)
				}
				if pnet.MessagePool().Quarantined() == 0 {
					t.Fatal("poison sweep quarantined nothing — releases never happened")
				}
				diffOrders(t, "poison vs refcount-off", pOrders, offOrders)
				diffTables(t, "poison vs refcount-off", pTables, offTables)
				if pStats != offStats {
					t.Fatalf("poison vs refcount-off stats differ:\n%s\n%s", pStats, offStats)
				}
			})
		}
	}
}

// TestRouteCacheGolden runs the golden cross-mode workload (three seeds,
// both evaluation topology families) with the epoch-keyed route-
// computation cache on (the default) and off, and requires:
//
//  1. cache invisibility — committed delivery orders, Stats counters
//     (with the cache's own counters factored out) and final routing
//     tables are bit-identical: the cache may remove real computation,
//     never change execution;
//  2. the cache actually works — the cached run reuses tables (hits or
//     skips > 0) and never violates the settle bound.
func TestRouteCacheGolden(t *testing.T) {
	mi := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.MI}
	topos := []struct {
		name string
		mk   func(seed uint64) *defined.Topology
	}{
		{"sprintlink", func(uint64) *defined.Topology { return defined.Sprintlink() }},
		{"brite20", func(seed uint64) *defined.Topology { return defined.Brite(20, 2, 9000+seed) }},
	}
	for _, tp := range topos {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				onOrders, _, onTables, onNet := goldenRun(tp.mk(seed), seed, mi, false)
				offOrders, _, offTables, offNet := goldenRun(tp.mk(seed), seed, mi, false,
					func(e *defined.EngineSpec) { e.RouteCache = ptr(false) })

				diffOrders(t, "cache-on vs cache-off", onOrders, offOrders)
				diffTables(t, "cache-on vs cache-off", onTables, offTables)

				// Stats must match bit-for-bit once the cache's own
				// counters are zeroed (the cache-off run reports zeros
				// there by construction).
				onStats, offStats := onNet.Stats(), offNet.Stats()
				if onStats.SPFCacheHits+onStats.RecomputeSkipped == 0 {
					t.Fatalf("cache-on run never reused a table: %+v", onStats)
				}
				if offStats.SPFCacheHits+offStats.SPFCacheMisses+offStats.RecomputeSkipped != 0 {
					t.Fatalf("cache-off run reported cache traffic: %+v", offStats)
				}
				onStats.SPFCacheHits, onStats.SPFCacheMisses, onStats.RecomputeSkipped = 0, 0, 0
				if on, off := fmt.Sprintf("%+v", onStats), fmt.Sprintf("%+v", offStats); on != off {
					t.Fatalf("cache-on vs cache-off stats differ:\n%s\n%s", on, off)
				}
				if onStats.SettleViolations != 0 {
					t.Fatalf("settle bound violated under caching: %+v", onStats)
				}
			})
		}
	}
}

// TestLookaheadGolden runs the golden cross-mode workload (three seeds,
// both evaluation topology families) with per-link lookahead on and off,
// sequential and 4-shard, and requires:
//
//  1. lookahead invisibility — committed delivery orders and final
//     routing tables are bit-identical in all four combinations. The
//     exact hold and the per-link window rule may only move speculation
//     dynamics and barrier placement (Theorem 1), so speculation counters
//     are allowed to differ but committed execution is not;
//  2. shard invariance at fixed lookahead — the lookahead-on sequential
//     and lookahead-on 4-shard runs agree on the full Stats string (the
//     same discipline TestShardGolden applies at lookahead-off);
//  3. the mechanism actually fires — the lookahead-on runs record exact
//     holds, and some holds run to their exact release;
//  4. the settle bound holds under lookahead (SettleViolations == 0).
func TestLookaheadGolden(t *testing.T) {
	mi := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.MI}
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
	var holds, exactFlushes uint64
	for _, tp := range topos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				offOrders, _, offTables, _ := goldenRun(tp.mk(seed), seed, mi, false)

				onOrders, onStats, onTables, onNet := goldenRun(tp.mk(seed), seed, mi, false,
					withLookahead)
				diffOrders(t, "lookahead-on vs off", onOrders, offOrders)
				diffTables(t, "lookahead-on vs off", onTables, offTables)
				if !strings.Contains(onStats, "SettleViolations:0") {
					t.Fatalf("settle bound violated under lookahead: %s", onStats)
				}
				s := onNet.Stats()
				holds += s.LookaheadHolds
				exactFlushes += s.LookaheadExactFlushes

				shOrders, shStats, shTables, shNet := goldenRun(tp.mk(seed), seed, mi, false,
					withLookahead, withShards(4))
				diffOrders(t, "lookahead 4-shard vs sequential", shOrders, onOrders)
				diffTables(t, "lookahead 4-shard vs sequential", shTables, onTables)
				if shStats != onStats {
					t.Fatalf("lookahead 4-shard vs sequential stats differ:\n%s\n%s", shStats, onStats)
				}
				if rep := shNet.CheckFaults(faults.CheckConfig{}); !rep.Ok() {
					t.Fatalf("lookahead 4-shard run: fault invariants on a fault-free run: %v", rep.Err())
				}
			})
		}
	}
	if holds == 0 {
		t.Fatal("lookahead-on runs never took an exact hold — the mechanism is inert")
	}
	if exactFlushes == 0 {
		t.Fatal("no exact hold ever ran to its release — every hold was clipped")
	}
}

// TestFigureMetricsGolden pins the headline metrics of the two figure
// reproductions the CI bench smoke tracks, regenerated the one way a
// figure is: committed spec → LoadSpec → Run. The specs state the seed
// tree's speculation dynamics (TF/FK cost point, deferral off), so these
// values must stay bit-identical across engine-default changes — the
// constants were captured from the PR 2 tree and guard the PR 3
// rollback-avoidance defaults. An intentional figure-workload change must
// update them.
func TestFigureMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates two figures (~10 s)")
	}
	f6 := runFigure(t, "fig6a")
	if got := goldenMedianX(f6.SeriesByName("DEFINED-RB").Points); got != 10.358974358974359 {
		t.Errorf("fig6a DEFINED-RB median pkts = %.17g, want 10.358974358974359", got)
	}
	if got := goldenMedianX(f6.SeriesByName("XORP").Points); got != 8.3076923076923066 {
		t.Errorf("fig6a XORP median pkts = %.17g, want 8.3076923076923066", got)
	}

	pts := runFigure(t, "fig8d").SeriesByName("DEFINED-RB").Points
	if got := pts[len(pts)-1].Y; got != 0.46000000000000002 {
		t.Errorf("fig8d convergence at highest rate = %.17g s, want 0.46000000000000002", got)
	}
}

// runFigure regenerates one evaluation figure from its committed spec.
func runFigure(tb testing.TB, id string) *metrics.Figure {
	tb.Helper()
	r, err := experiments.LoadSpec(id)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := experiments.Run(r)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// goldenMedianX mirrors the bench harness's headline extraction: the CDF
// x at the first y >= 0.5.
func goldenMedianX(pts []metrics.Point) float64 {
	for _, p := range pts {
		if p.Y >= 0.5 {
			return p.X
		}
	}
	return math.NaN()
}
