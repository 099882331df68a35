package rollback

// Engine-level coherence for the epoch-keyed route-computation cache: a
// real workload with genuine rollbacks must commit identical delivery
// orders, identical routing tables and identical speculation dynamics with
// the cache on and off — the cache removes recomputation, never changes
// execution — while the cached run demonstrably reuses tables across the
// rollback churn.

import (
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// ospfFlap drives a link flap through a 16-node BRITE graph under the
// engine defaults (TM/MI) and drains it.
func ospfFlap(t *testing.T, spec EngineSpec) (*Engine, []*ospf.Daemon) {
	t.Helper()
	g := topology.Brite(16, 2, 5)
	daemons := make([]*ospf.Daemon, g.N)
	apps := make([]api.Application, g.N)
	for i := range apps {
		daemons[i] = ospf.New(ospf.Config{})
		apps[i] = daemons[i]
	}
	spec.Seed = ptr[uint64](7)
	spec.DeliveryLog = ptr(true)
	e := New(g, apps, spec)
	l := g.Links[0]
	e.Sim().ScheduleFn(vtime.Time(300*vtime.Millisecond), func() { _ = e.InjectLinkChange(l.A, l.B, false) })
	e.Sim().ScheduleFn(vtime.Time(900*vtime.Millisecond), func() { _ = e.InjectLinkChange(l.A, l.B, true) })
	e.Run(vtime.Time(2 * vtime.Second))
	if !e.RunQuiescent(10_000_000) {
		t.Fatal("network did not quiesce")
	}
	return e, daemons
}

func TestRouteCacheCoherentUnderRollback(t *testing.T) {
	on, onDaemons := ospfFlap(t, EngineSpec{})
	off, offDaemons := ospfFlap(t, EngineSpec{RouteCache: ptr(false)})

	onStats, offStats := on.Stats(), off.Stats()
	if onStats.Rollbacks == 0 {
		t.Fatal("workload produced no rollbacks — coherence not exercised")
	}
	// Hits are the rollback-churn currency here (a flap workload has no
	// identical-links refresh floods, so the zero-lookup skip path is
	// exercised by the daemon unit tests instead).
	if onStats.SPFCacheHits == 0 {
		t.Fatalf("cache never reused a table under rollback churn: %+v", onStats)
	}
	if offStats.SPFCacheHits+offStats.SPFCacheMisses+offStats.RecomputeSkipped != 0 {
		t.Fatalf("cache-off run reported cache traffic: %+v", offStats)
	}

	// The cache must not move any speculation dynamics: zero the cache's
	// own counters and every remaining Stats field must match.
	onStats.SPFCacheHits, onStats.SPFCacheMisses, onStats.RecomputeSkipped = 0, 0, 0
	if onStats != offStats {
		t.Fatalf("cache changed engine dynamics:\non:  %+v\noff: %+v", onStats, offStats)
	}

	// Committed delivery orders and converged routing tables are
	// bit-identical.
	for n := 0; n < on.G.N; n++ {
		onKeys, offKeys := on.CommittedKeys(msg.NodeID(n)), off.CommittedKeys(msg.NodeID(n))
		if len(onKeys) != len(offKeys) {
			t.Fatalf("node %d committed %d vs %d deliveries", n, len(onKeys), len(offKeys))
		}
		for i := range onKeys {
			if onKeys[i] != offKeys[i] {
				t.Fatalf("node %d delivery %d: %v vs %v", n, i, onKeys[i], offKeys[i])
			}
		}
		if a, b := onDaemons[n].DumpTable(), offDaemons[n].DumpTable(); a != b {
			t.Fatalf("node %d routing tables differ:\n%s\nvs\n%s", n, a, b)
		}
	}
}

// TestRouteCacheStatsAggregation pins the capability probe: stats sum over
// capable applications only, and disabling via config empties them.
func TestRouteCacheStatsAggregation(t *testing.T) {
	e, _ := ospfFlap(t, EngineSpec{})
	st := e.Stats()
	var want api.RouteCacheStats
	for n := 0; n < e.G.N; n++ {
		cs := e.App(msg.NodeID(n)).(api.RecomputeCached).RouteCacheStats()
		want.Hits += cs.Hits
		want.Misses += cs.Misses
		want.Skipped += cs.Skipped
	}
	if st.SPFCacheHits != want.Hits || st.SPFCacheMisses != want.Misses || st.RecomputeSkipped != want.Skipped {
		t.Fatalf("aggregation mismatch: %+v vs per-app sum %+v", st, want)
	}
}
