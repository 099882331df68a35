package main

// The metric table: every name the benchmark emits, with its unit,
// direction and — for end-to-end metrics — the bound by which it may worsen
// before a change counts as a regression. The glossary in README.md and
// BENCHMARK.json are both printed from this table (-glossary, -manifest).

type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // end-to-end only
	what   string  // one line for the glossary
	// Per-layer only: the end-to-end metric it should move, and where.
	moves, on string
}

func (m metricDef) better() string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// "committed" is Stats.CommittedDeliveries(), or the delivered count on
// sprint_replay. The four wall-clock metrics carry the widest bound a
// benchmark may declare: on this two-core box the spread between ten runs
// of unchanged code has been anywhere from 3 % to 20 % depending on the
// hour (README, "Run-to-run noise"). The three counts repeat exactly on a
// fixed seed and differ by under 2 % between seeds.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25,
		what: "wall from ParseSpec through NewNetworkFromPlan returning (sprint_replay: plus the recorded production run, Encode/Decode and NewReplay); fastest of a loop of 5 to 50 set-ups"},
	{name: "ns_per_committed", unit: "ns", bound: 0.25,
		what: "wall of RunPlan (sprint_replay: of the StepRound loop) / committed; fastest rep — the headline"},
	{name: "allocs_per_committed", unit: "count", bound: 0.05,
		what: "MemStats.Mallocs delta over the same interval / committed; median rep (-agree holds shards=0 workloads to 0.02)"},
	{name: "bytes_per_committed", unit: "B", bound: 0.05,
		what: "MemStats.TotalAlloc delta over the same interval / committed; median rep"},
	{name: "live_heap_mb", unit: "MB", bound: 0.05,
		what: "HeapAlloc after runtime.GC() at the end of the run with the network still reachable; median rep"},
	{name: "step_p50_us", unit: "us", bound: 0.25,
		what: "median host wall of one user-visible step, in the fastest rep: one Replay.StepRound on sprint_replay; one whole RunPlan elsewhere, where the production engine offers no finer step"},
	{name: "step_p99_us", unit: "us", bound: 0.25,
		what: "99th percentile of a rep's steps on sprint_replay, fastest rep; elsewhere a rep is one step and it equals step_p50_us"},
}

// allocBoundSeq is the tighter allocs_per_committed bound -agree applies
// on the sequential engine, where allocation counts barely move; the
// sharded engine's vary with goroutine interleaving.
const allocBoundSeq = 0.02

var perLayer = []metricDef{
	{name: "scenario.parse_resolve_us", unit: "us", what: "ParseSpec + Resolve span", moves: "setup_s", on: "hier2k_mixed (≈ 0 elsewhere)"},
	{name: "scenario.expand_ms", unit: "ms", what: "RunSpec.Expand span", moves: "setup_s", on: "hier2k_mixed"},
	{name: "scenario.fingerprint_ms", unit: "ms", what: "Plan.Fingerprint span (not part of set-up)", moves: "-", on: "hier2k_mixed"},
	{name: "boot.ms", unit: "ms", what: "NewNetworkFromPlan span: engine construction and every daemon's Init", moves: "setup_s", on: "hier2k_mixed"},
	{name: "boot.alloc_mb", unit: "MB", what: "TotalAlloc delta over the boot span", moves: "live_heap_mb", on: "hier2k_mixed"},

	{name: "daemon.busy_frac", unit: "frac", what: "handler spans (HandleMessage/Timer/External) / run span", moves: "ns_per_committed", on: "brite150_flap most; hier2k_mixed; little on sprint_flap"},
	{name: "daemon.ns_per_call", unit: "ns", what: "mean handler span", moves: "ns_per_committed", on: "brite150_flap"},
	{name: "daemon.calls_per_committed", unit: "ratio", what: "handler calls / committed (re-deliveries after rollback included)", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "daemon.isolated_ns_per_call", unit: "ns", what: "mean handler span when the recorded op stream is replayed into fresh daemons with no engine", moves: "ns_per_committed", on: "brite150_flap"},

	{name: "routecache.hit_rate", unit: "frac", higher: true, what: "(hits + skipped) / route-computation lookups", moves: "daemon.ns_per_call -> ns_per_committed", on: "brite150_flap; sprint_flap_ref (the cache's best case)"},
	{name: "routecache.misses_per_committed", unit: "ratio", what: "route computations actually executed / committed", moves: "ns_per_committed", on: "brite150_flap"},

	{name: "checkpoint.capture_ns_per_committed", unit: "ns", what: "State().Clone() + JournalMark spans / committed", moves: "ns_per_committed, bytes_per_committed", on: "sprint_flap_ref (FK), hier2k_mixed (clone fallback); ≈ 0 on sprint_flap"},
	{name: "checkpoint.restore_ns_per_rollback", unit: "ns", what: "snapshot Clone + Restore + JournalRewind spans / rollback episodes", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "checkpoint.clones_per_committed", unit: "ratio", what: "state clones (captures and restores) / committed", moves: "allocs_per_committed, bytes_per_committed", on: "sprint_flap_ref, hier2k_mixed"},
	{name: "checkpoint.busy_frac", unit: "frac", what: "all checkpoint spans (clone, restore, mark, rewind, compact) / run span", moves: "ns_per_committed", on: "sprint_flap_ref highest"},

	{name: "rollback.speculated_per_committed", unit: "ratio", what: "Stats.Deliveries / committed", moves: "ns_per_committed, allocs_per_committed", on: "sprint_flap_ref >> sprint_flap; identical on hier2k_mixed and hier2k_shards2"},
	{name: "rollback.rollbacks_per_committed", unit: "ratio", what: "Stats.Rollbacks / committed", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "rollback.mean_depth", unit: "count", what: "Stats.RollbackDepthSum / Rollbacks", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "rollback.spurious_frac", unit: "frac", what: "Stats.SpuriousRollbacks / Rollbacks", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "rollback.anti_per_committed", unit: "ratio", what: "Stats.AntiMessages / committed", moves: "ns_per_committed", on: "sprint_flap_ref"},
	{name: "rollback.defer_hit_rate", unit: "frac", higher: true, what: "Stats.DeferHits / Deferred", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "rollback.exact_flush_rate", unit: "frac", higher: true, what: "Stats.LookaheadExactFlushes / LookaheadHolds", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "rollback.overhead_ratio", unit: "ratio", what: "ns_per_committed / ns per delivery of the same Spec with engine.baseline=true (the paper's DEFINED-RB vs XORP)", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "engine.self_frac", unit: "frac", what: "(run span - daemon spans - checkpoint spans) / run span", moves: "ns_per_committed", on: "sprint_flap highest"},

	{name: "eventq.ns_per_push_pop", unit: "ns", what: "isolated eventq driver: push at the recorded arrival time + pop, at the run's queue depth", moves: "ns_per_committed", on: "sprint_flap; hier2k_mixed (depth ~2k)"},
	{name: "eventq.ns_per_reschedule", unit: "ns", what: "isolated eventq driver: Reschedule of a live handle", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "netsim.ns_per_send_deliver", unit: "ns", what: "isolated netsim driver: Send + delivery Step of the recorded sends, no-op handlers", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "netsim.allocs_per_send", unit: "count", what: "Mallocs delta of the same driver / sends", moves: "allocs_per_committed", on: "sprint_flap"},
	{name: "history.ns_per_insert_retire", unit: "ns", what: "isolated history driver: Insert of the recorded arrival keys, Retire in batches", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "msg.pool_ns_per_get_release", unit: "ns", what: "isolated msg.Pool driver: Get + Release", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "journal.ns_per_record", unit: "ns", what: "isolated journal driver: Record, sized by the recorded mark stream", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "journal.ns_per_rewind_entry", unit: "ns", what: "isolated journal driver: Rewind cost per undone entry", moves: "ns_per_committed", on: "sprint_flap"},
	{name: "ledger.residual_frac", unit: "frac", what: "share of engine self time the isolated drivers x the run's op counts do not explain (reported, not gated)", moves: "-", on: "sprint_flap"},

	{name: "shard.windows", unit: "count", what: "parallel windows (commit barriers)", moves: "ns_per_committed", on: "hier2k_shards2 only"},
	{name: "shard.serial_steps", unit: "count", what: "events that fell back to serial execution", moves: "ns_per_committed", on: "hier2k_shards2 only"},
	{name: "shard.committed_per_window", unit: "ratio", higher: true, what: "committed / windows: work per synchronisation point", moves: "ns_per_committed", on: "hier2k_shards2 only"},
	{name: "shard.cpu_s_per_wall_s", unit: "ratio", higher: true, what: "getrusage CPU / wall over the run", moves: "ns_per_committed", on: "hier2k_shards2 only"},
	{name: "shard.speedup_vs_seq", unit: "ratio", higher: true, what: "hier2k_mixed ns_per_committed / hier2k_shards2 ns_per_committed, same process", moves: "ns_per_committed", on: "hier2k_shards2 only"},
	{name: "shard.ns_per_merged_action", unit: "ns", what: "isolated shard.Merge over two lanes' logs of the recorded sends", moves: "ns_per_committed", on: "hier2k_shards2 only"},

	{name: "lockstep.new_ms", unit: "ms", what: "NewReplay span", moves: "setup_s", on: "sprint_replay"},
	{name: "lockstep.ns_per_delivery", unit: "ns", what: "(StepRound loop - daemon spans) / delivered", moves: "step_p50_us, ns_per_committed", on: "sprint_replay"},
	{name: "lockstep.deliveries_per_step", unit: "ratio", what: "delivered / StepRound calls", moves: "step_p50_us", on: "sprint_replay"},
	{name: "lockstep.step_p999_us", unit: "us", what: "99.9th percentile StepRound wall (or the highest percentile with >= 10 samples beyond)", moves: "step_p99_us", on: "sprint_replay"},
	{name: "lockstep.step_max_us", unit: "us", what: "slowest StepRound", moves: "step_p99_us", on: "sprint_replay"},
	{name: "record.events", unit: "count", what: "events in the partial recording", moves: "setup_s", on: "sprint_replay"},
	{name: "record.bytes_per_committed", unit: "B", what: "encoded recording size / committed", moves: "setup_s", on: "sprint_replay"},
	{name: "record.encode_decode_ms", unit: "ms", what: "Recording.Encode + Decode span", moves: "setup_s", on: "sprint_replay"},
	{name: "record.overhead_ratio", unit: "ratio", what: "production wall with record=true / the same run with record=false, same process", moves: "setup_s", on: "sprint_replay"},

	{name: "gc.cpu_frac", unit: "frac", what: "runtime/metrics GC CPU seconds / run wall seconds", moves: "links allocs/bytes_per_committed to ns_per_committed", on: "hier2k_mixed, sprint_flap_ref"},
	{name: "gc.cycles", unit: "count", what: "GC cycles during the run", moves: "ns_per_committed", on: "hier2k_mixed, sprint_flap_ref"},

	{name: "trace.overhead_frac", unit: "frac", what: "traced / untraced ns_per_committed - 1, alternating reps of one process", moves: "-", on: "all"},
}
