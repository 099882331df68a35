package defined_test

// Golden tests for the sharded parallel engine. The sharding contract is
// absolute: for any shard count N, the committed delivery orders, every
// Stats counter, and every node's final routing table must be
// bit-identical to the sequential engine — parallelism may change
// wall-clock speed only, never execution. These tests are the proof the
// engine.shards documentation cites, and they are the reason the conservative
// window protocol can be trusted: any divergence in the commit-barrier
// merge, the provisional-sequence resolution, or the estimator window
// schedule shows up here as a differing order, counter or table.

import (
	"fmt"
	"runtime"
	"testing"

	"defined"
	"defined/internal/checkpoint"
	"defined/internal/faults"
)

// TestShardGolden checks that the sharded engine commits bit-identical
// executions for shard counts 1, 2, 4 and 7 (7 deliberately does not
// divide the node counts evenly) against the sequential engine, across
// three seeds and both evaluation topology families. Stats equality is
// the strongest check: it covers rollback counts, anti-messages, deferral
// hits, settle-estimator behaviour and route-cache counters, so the
// shards must not only deliver identically but speculate identically.
func TestShardGolden(t *testing.T) {
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
	for _, tp := range topos {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tp.name, seed), func(t *testing.T) {
				seqOrders, seqStats, seqTables, _ := goldenRun(tp.mk(seed), seed, mi, false)
				for _, n := range []int{1, 2, 4, 7} {
					shOrders, shStats, shTables, net := goldenRun(tp.mk(seed), seed, mi, false,
						withShards(n))
					what := fmt.Sprintf("shards=%d vs sequential", n)
					diffOrders(t, what, seqOrders, shOrders)
					diffTables(t, what, seqTables, shTables)
					if shStats != seqStats {
						t.Fatalf("%s: stats differ:\n%s\nvs\n%s", what, shStats, seqStats)
					}
					if rep := net.CheckFaults(faults.CheckConfig{}); !rep.Ok() {
						t.Fatalf("%s: fault invariants on a fault-free run: %v", what, rep.Err())
					}
				}
				// Lookahead-on rows: per-lane window horizons must preserve
				// the same contract at shard counts TestLookaheadGolden does
				// not cover (it pins 4). Committed execution must also match
				// the lookahead-off rows above — lookahead may move
				// speculation and barrier placement only.
				laOrders, laStats, laTables, _ := goldenRun(tp.mk(seed), seed, mi, false,
					withLookahead)
				diffOrders(t, "lookahead-on vs off (sequential)", laOrders, seqOrders)
				diffTables(t, "lookahead-on vs off (sequential)", laTables, seqTables)
				for _, n := range []int{2, 7} {
					shOrders, shStats, shTables, _ := goldenRun(tp.mk(seed), seed, mi, false,
						withLookahead, withShards(n))
					what := fmt.Sprintf("lookahead shards=%d vs sequential", n)
					diffOrders(t, what, laOrders, shOrders)
					diffTables(t, what, laTables, shTables)
					if shStats != laStats {
						t.Fatalf("%s: stats differ:\n%s\nvs\n%s", what, shStats, laStats)
					}
				}
			})
		}
	}
}

// TestShardGOMAXPROCS checks that the sharded engine's determinism does
// not depend on how the runtime schedules the shard workers: a 4-shard
// run must be bit-identical to the sequential engine whether the workers
// share one OS thread or spread over many. This is the regression guard
// for the happens-before discipline — a data race between shards would
// surface here as a GOMAXPROCS-dependent divergence (and under -race as a
// report).
func TestShardGOMAXPROCS(t *testing.T) {
	mi := checkpoint.Strategy{Timing: checkpoint.TM, Mode: checkpoint.MI}
	g := defined.Sprintlink()
	seqOrders, seqStats, seqTables, _ := goldenRun(g, 1, mi, false)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		shOrders, shStats, shTables, _ := goldenRun(defined.Sprintlink(), 1, mi, false,
			withShards(4))
		what := fmt.Sprintf("shards=4 GOMAXPROCS=%d vs sequential", procs)
		diffOrders(t, what, seqOrders, shOrders)
		diffTables(t, what, seqTables, shTables)
		if shStats != seqStats {
			t.Fatalf("%s: stats differ:\n%s\nvs\n%s", what, shStats, seqStats)
		}
	}
}
