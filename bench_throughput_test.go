package defined_test

import (
	"testing"

	"defined"
	"defined/internal/rollback"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// BenchmarkEngineThroughput measures raw event-pipeline throughput
// (events/sec) on Sprintlink under DEFINED-RB: a link flap drives an OSPF
// flood wave through the full stack — eventq scheduling, netsim FIFO
// clamping, speculative delivery, rollback replay and anti-message
// cancellation. The seq sub-benchmark is the sequential engine (the
// allocation-free core's end-to-end number; run with -benchmem to see
// allocs/op); shards4 runs the identical workload on the 4-shard parallel
// engine, so seq vs shards4 at -cpu 4 is the sharding speedup on the
// bit-identical execution. At -cpu 1 shards4 instead measures the
// window/merge overhead with no parallelism to pay for it. seq and
// shards4 run with per-link lookahead on (the engine-best configuration
// this bench tracks); shards4-nola is the pre-lookahead engine (global
// window rule, heuristic gap rule), so shards4 vs shards4-nola is the
// full lookahead contrast — same committed orders, different speculation
// dynamics (rb/committed, allocs/op). The two configurations process
// different event streams, so their raw window counts are not comparable.
// rb/committed is the speculation headline: rollbacks per committed
// delivery.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  func(*rollback.Config)
	}{
		{"seq", func(c *rollback.Config) { c.Shards = 0 }},
		{"shards4", func(c *rollback.Config) { c.Shards = 4 }},
		{"shards4-nola", func(c *rollback.Config) { c.Shards = 4; c.Lookahead = false }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			var eng *rollback.Engine
			for i := 0; i < b.N; i++ {
				eng = flapScenario(mode.cfg)
				n, _ := eng.Sim().RunQuiescent(10_000_000)
				events += n
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			st := eng.Stats()
			if committed := st.CommittedDeliveries(); committed > 0 {
				b.ReportMetric(float64(st.Rollbacks)/float64(committed), "rb/committed")
			}
			if w := eng.Sim().Windows(); w > 0 {
				// Commit-barrier crossings for the whole workload (sharded
				// modes only); wider windows → fewer barriers.
				b.ReportMetric(float64(w), "windows")
			}
			// Epoch-cache effectiveness: skipped and hit recomputes reused a
			// current or memoized table; misses ran Dijkstra.
			if lookups := st.SPFCacheHits + st.SPFCacheMisses + st.RecomputeSkipped; lookups > 0 {
				b.ReportMetric(float64(st.SPFCacheHits+st.RecomputeSkipped)/float64(lookups), "spf-cache-hit-rate")
			}
		})
	}
}

// flapScenario builds the shared Sprintlink link-flap workload and runs it
// to the drain point (engine-best configuration: TM/MI, deferral on,
// per-link lookahead on; callers override per mode).
func flapScenario(opts ...func(*rollback.Config)) *rollback.Engine {
	g := topology.Sprintlink()
	apps := make([]defined.Application, g.N)
	for j := range apps {
		apps[j] = ospf.New(ospf.Config{})
	}
	cfg := rollback.Config{Seed: 7, Lookahead: true}
	for _, o := range opts {
		o(&cfg)
	}
	eng := rollback.New(g, apps, cfg)
	l := g.Links[0]
	eng.Sim().ScheduleFn(vtime.Time(300*vtime.Millisecond), func() {
		_ = eng.InjectLinkChange(l.A, l.B, false)
	})
	eng.Sim().ScheduleFn(vtime.Time(900*vtime.Millisecond), func() {
		_ = eng.InjectLinkChange(l.A, l.B, true)
	})
	eng.Run(vtime.Time(2 * vtime.Second))
	return eng
}

// BenchmarkRollbackRate reports the speculation-quality metrics of the
// rollback-avoidance fast path on the same workload as EngineThroughput:
// rollbacks per committed delivery (the headline), deferral volume and
// hit-rate, the spurious fraction, and mean rollback depth. Sub-benchmarks
// compare the deferral default against the eager pre-PR3 dynamics;
// committed deliveries are identical in both (Theorem 1), only the
// speculation around them moves.
func BenchmarkRollbackRate(b *testing.B) {
	for _, mode := range []struct {
		name  string
		slack vtime.Duration
	}{
		{"defer", 0}, // engine default
		{"eager", -1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := flapScenario(func(c *rollback.Config) { c.DeferSlack = mode.slack })
				eng.RunQuiescent(10_000_000)
				st := eng.Stats()
				committed := float64(st.CommittedDeliveries())
				b.ReportMetric(float64(st.Rollbacks)/committed, "rollbacks/delivery")
				b.ReportMetric(float64(st.Deliveries)/committed, "speculated/committed")
				if st.Deferred > 0 {
					b.ReportMetric(float64(st.DeferHits)/float64(st.Deferred), "defer-hit-rate")
				}
				if st.LookaheadHolds > 0 {
					b.ReportMetric(float64(st.LookaheadExactFlushes)/float64(st.LookaheadHolds), "exact-flush-rate")
				}
				if st.Rollbacks > 0 {
					b.ReportMetric(float64(st.SpuriousRollbacks)/float64(st.Rollbacks), "spurious-frac")
					b.ReportMetric(float64(st.RollbackDepthSum)/float64(st.Rollbacks), "mean-depth")
				}
			}
		})
	}
}

// TestLookaheadRollbackRate pins the tentpole number the benchmarks track:
// on the Sprintlink link-flap workload, per-link lookahead cuts rollbacks
// per committed delivery below 0.1 (from ~0.46 with the heuristic gap rule
// alone) without moving a single committed delivery — the committed count
// must be identical on and off (order identity is TestLookaheadGolden's
// job), and the exact holds must do the work (holds taken, most flushing
// at their exact release rather than clipped by budget).
func TestLookaheadRollbackRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 2 s flap workload twice (~0.5 s)")
	}
	run := func(la bool) rollback.Stats {
		eng := flapScenario(func(c *rollback.Config) { c.Lookahead = la })
		eng.RunQuiescent(10_000_000)
		return eng.Stats()
	}
	off, on := run(false), run(true)
	if off.CommittedDeliveries() != on.CommittedDeliveries() {
		t.Fatalf("lookahead moved committed deliveries: %d on vs %d off",
			on.CommittedDeliveries(), off.CommittedDeliveries())
	}
	committed := float64(on.CommittedDeliveries())
	if committed == 0 {
		t.Fatal("flap workload committed nothing")
	}
	offRate := float64(off.Rollbacks) / committed
	onRate := float64(on.Rollbacks) / committed
	t.Logf("rb/committed: %.4f off -> %.4f on (holds %d, exact flushes %d)",
		offRate, onRate, on.LookaheadHolds, on.LookaheadExactFlushes)
	if onRate >= 0.1 {
		t.Fatalf("rb/committed = %.4f with lookahead, want < 0.1", onRate)
	}
	if onRate >= offRate/2 {
		t.Fatalf("lookahead barely moved the rate: %.4f on vs %.4f off", onRate, offRate)
	}
	if on.LookaheadHolds == 0 || on.LookaheadExactFlushes == 0 {
		t.Fatalf("exact-hold mechanism inert: %+v", on)
	}
	if on.SettleViolations != 0 || off.SettleViolations != 0 {
		t.Fatalf("settle violations: on %d off %d", on.SettleViolations, off.SettleViolations)
	}
}
