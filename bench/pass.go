package main

// The two passes over one workload. The untraced pass produces the
// end-to-end metrics; the traced pass produces the per-layer metrics and
// never feeds an end-to-end number.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"defined/internal/scenario"
)

// minReps is the floor on timed reps however short the run budget.
const minReps = 3

// outcome is what one pass over one workload produced.
type outcome struct {
	values    map[string]float64
	attempted int // reps run, each with all its checks
	failed    int
	problems  []error
	exact     pin // the pass's exact counts (untraced pass)
	reps      int // timed reps behind the medians
	steps     int // step samples per rep behind the step percentiles
	tailPct   float64
	nsSpread  [3]float64 // ns_per_committed over the timed reps: the three quartiles
	trace     *traceFile
}

func (o *outcome) fail(err error) {
	o.failed++
	o.problems = append(o.problems, err)
}

// checkRep runs the untimed check rep of w: delivery logging on, so the
// committed order can be fingerprinted.
func (o *outcome) checkRep(w workload, spec scenario.Spec) (pin, bool) {
	o.attempted++
	r, err := runRep(w, spec, repOpts{deliveryLog: true})
	if err != nil {
		o.fail(err)
		return pin{}, false
	}
	got, err := pinOf(spec, r)
	if err != nil {
		o.fail(err)
		return pin{}, false
	}
	return got, true
}

// untracedPass is the end-to-end measurement of w: one check rep (which
// is also the warm-up), then timed reps for the given budget.
func untracedPass(w workload, seed uint64, budget time.Duration, exp expectations) *outcome {
	o := &outcome{values: map[string]float64{}}
	spec := w.build(seed)

	got, ok := o.checkRep(w, spec)
	if !ok {
		return o
	}
	o.exact = got
	if want, pinned := exp.lookup(w.name, seed); pinned {
		if d := want.diff(got); len(d) > 0 {
			o.fail(fmt.Errorf("%s seed %d departs from expect.json:\n  %s", w.name, seed, strings.Join(d, "\n  ")))
		}
	}
	if peer := w.sameOrderAs + w.sameTablesAs; peer != "" {
		// The peer's outputs: pinned if this seed is, measured otherwise.
		other, pinned := exp.lookup(peer, seed)
		if !pinned {
			pw, _ := workloadByName(peer)
			if other, ok = o.checkRep(pw, pw.build(seed)); !ok {
				return o
			}
		}
		if other.Tables != got.Tables {
			o.fail(fmt.Errorf("%s seed %d: routing tables %s, but %s ends with %s", w.name, seed, got.Tables, peer, other.Tables))
		}
		if w.sameOrderAs != "" && (other.Order != got.Order || other.Committed != got.Committed) {
			o.fail(fmt.Errorf("%s seed %d: committed %d in order %s, but %s committed %d in order %s",
				w.name, seed, got.Committed, got.Order, peer, other.Committed, other.Order))
		}
	}
	if o.failed > 0 {
		return o
	}

	// Wall-clock metrics report the best rep, counts the median rep; see
	// fastest.
	var nsPer, stepP50, stepP99, allocs, bytes, heap []float64
	start := time.Now()
	for o.reps < minReps || time.Since(start) < budget {
		o.attempted++
		r, err := runRep(w, spec, repOpts{})
		if err == nil && (r.stats != got.Stats || r.committed != got.Committed || hex(r.tables) != got.Tables) {
			err = fmt.Errorf("%s: rep %d departs from the check rep: committed %d tables %s stats %+v",
				w.name, o.attempted, r.committed, hex(r.tables), r.stats)
		}
		if err == nil && w.replay && hex(r.order) != got.Order {
			err = fmt.Errorf("%s: rep %d delivered order %s, check rep %s", w.name, o.attempted, hex(r.order), got.Order)
		}
		if err != nil {
			o.fail(err)
			if o.failed >= minReps {
				return o // it is not going to get better
			}
			continue
		}
		o.reps++
		c := float64(r.committed)
		nsPer = append(nsPer, r.nsPerCommitted())
		allocs = append(allocs, float64(r.delta.mallocs)/c)
		bytes = append(bytes, float64(r.delta.bytes)/c)
		heap = append(heap, float64(r.liveHeap)/1e6)
		// One RunPlan is the production engine's only step.
		steps := []float64{float64(r.run) / 1e3}
		if w.replay {
			steps = r.stepsUs
			sort.Float64s(steps)
		}
		o.steps, o.tailPct = len(steps), tailPercentile(len(steps), 99)
		stepP50 = append(stepP50, percentile(steps, 50))
		stepP99 = append(stepP99, percentile(steps, o.tailPct))
	}
	// Set-up is timed in a loop of its own, back to back: at least five
	// samples, up to fifty within a second. Taken from the timed reps it
	// would be three samples on the slow workloads, and on the fast ones a
	// 2 ms span run on caches a whole simulation has just emptied.
	var setup []float64
	for t0 := time.Now(); len(setup) < 5 || (len(setup) < 50 && time.Since(t0) < time.Second); {
		r, err := runRep(w, spec, repOpts{setupOnly: true})
		if err != nil {
			o.fail(err)
			return o
		}
		setup = append(setup, r.setup.Seconds())
	}
	sort.Float64s(nsPer)
	o.nsSpread = [3]float64{percentile(nsPer, 25), percentile(nsPer, 50), percentile(nsPer, 75)}
	o.values["setup_s"] = fastest(setup)
	o.values["ns_per_committed"] = fastest(nsPer)
	o.values["allocs_per_committed"] = median(allocs)
	o.values["bytes_per_committed"] = median(bytes)
	o.values["live_heap_mb"] = median(heap)
	o.values["step_p50_us"] = fastest(stepP50)
	o.values["step_p99_us"] = fastest(stepP99)
	return o
}

// fastest is the smallest sample: what a wall-clock metric reports. On
// this box interference arrives in bursts of a few seconds that slow
// whatever runs by 20 to 50 % and only ever add time; over runs of twelve
// reps cut from one 90 s trace, the median rep moved by 9.7 % between runs
// and the fastest by 3.5 % (README, "Run-to-run noise"). The fastest rep
// is the one the bursts missed.
func fastest(v []float64) float64 { return slices.Min(v) }

// ratio is a/b, or 0 when b is 0 (a rate over nothing is reported as 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass measures the per-layer metrics of w: untraced and traced
// reps alternate for the budget (their difference is the tracing
// overhead), then one recording rep feeds the isolated drivers, then the
// comparison runs the ratio metrics need.
func tracedPass(w workload, seed uint64, budget time.Duration) *outcome {
	o := &outcome{values: map[string]float64{}}
	for _, m := range perLayer {
		o.values[m.name] = 0
	}
	spec := w.build(seed)
	tr := newTracer()

	// run executes one more rep and counts it.
	run := func(w workload, spec scenario.Spec, opts repOpts) *rep {
		o.attempted++
		r, err := runRep(w, spec, opts)
		if err != nil {
			o.fail(err)
			return nil
		}
		return r
	}

	perRep := map[string][]float64{}
	var plainNs []float64    // untraced ns_per_committed, the base of the ratio metrics
	var steps []float64      // replay: every untraced StepRound, pooled
	var production []float64 // replay: wall of every recorded production run
	var last *rep
	start := time.Now()
	for last == nil || time.Since(start) < budget {
		plain := run(w, spec, repOpts{})
		traced := run(w, spec, repOpts{trace: tr})
		if plain == nil || traced == nil {
			return o
		}
		if plain.stats != traced.stats || plain.tables != traced.tables || plain.committed != traced.committed {
			o.fail(fmt.Errorf("%s: tracing changed the simulation: stats %+v, untraced %+v", w.name, traced.stats, plain.stats))
			return o
		}
		for name, v := range layerMetrics(w, plain, traced) {
			perRep[name] = append(perRep[name], v)
		}
		plainNs = append(plainNs, plain.nsPerCommitted())
		steps = append(steps, plain.stepsUs...)
		production = append(production, float64(plain.production))
		last = traced
		o.reps++
	}
	for name, vs := range perRep {
		o.values[name] = median(vs)
	}
	nsPerCommitted := median(plainNs)
	if w.replay {
		sort.Float64s(steps)
		o.values["lockstep.step_p999_us"] = percentile(steps, tailPercentile(len(steps), 99.9))
		o.values["lockstep.step_max_us"] = steps[len(steps)-1]
	}

	// The recording rep, on the sequential engine: the sharded engine
	// executes the same stream, and one log needs one writer.
	log := &opLog{}
	recSpec := spec
	recSpec.Engine.Shards = ptr(0)
	if run(w, recSpec, repOpts{trace: newTracer(), rec: log}) == nil {
		return o
	}
	plan, err := expandSpec(recSpec)
	if err != nil {
		o.fail(err)
		return o
	}
	if o.values["daemon.isolated_ns_per_call"], err = replayDaemons(plan, log); err != nil {
		o.fail(err)
		return o
	}

	if !w.replay {
		n := plan.Graph.N
		poolNs := drivePool()
		pushPop, resched := driveEventq(arrivalTimes(log), n)
		sendNs, sendAllocs := driveNetsim(plan.Graph, log, poolNs)
		histNs := driveHistory(n, log, poolNs)
		recNs, rewindNs, records, undone := driveJournal(n, log)
		o.values["msg.pool_ns_per_get_release"] = poolNs
		o.values["eventq.ns_per_push_pop"], o.values["eventq.ns_per_reschedule"] = pushPop, resched
		o.values["netsim.ns_per_send_deliver"], o.values["netsim.allocs_per_send"] = sendNs, sendAllocs
		o.values["history.ns_per_insert_retire"] = histNs
		o.values["journal.ns_per_record"], o.values["journal.ns_per_rewind_entry"] = recNs, rewindNs

		// The ledger: isolated cost x the traced run's op counts, against
		// its engine self time. Reschedules are counted by deferrals —
		// each arms or re-arms the flush event.
		explained := pushPop*float64(last.processed) + resched*float64(last.stats.Deferred) +
			(sendNs+poolNs)*float64(last.sent) + histNs*float64(last.stats.Deliveries) +
			recNs*float64(records) + rewindNs*float64(undone)
		if last.windows > 0 {
			mergeNs, actions := driveMerge(n, *spec.Engine.Shards, log, last.windows)
			o.values["shard.ns_per_merged_action"] = mergeNs
			explained += mergeNs * float64(actions)
		}
		_, daemon := last.totals.sum(method.isHandler)
		_, ckpt := last.totals.sum(method.isCheckpoint)
		self := selfTime(last.run, daemon, ckpt)
		o.values["ledger.residual_frac"] = ratio(float64(self)-explained, float64(self))

		// The paper's DEFINED-RB vs XORP comparison: the same spec on the
		// bare engine, which has no rollback layer to look ahead or shard.
		base := spec
		base.Engine.Baseline, base.Engine.Lookahead, base.Engine.Shards = ptr(true), ptr(false), ptr(0)
		if b := run(w, base, repOpts{}); b != nil {
			o.values["rollback.overhead_ratio"] = ratio(nsPerCommitted, ratio(float64(b.run), float64(b.stats.Deliveries)))
		}
	}
	if w.sameOrderAs != "" {
		// The same inputs on the peer workload, in this process: a second
		// of reps, one at least.
		pw, _ := workloadByName(w.sameOrderAs)
		var peerRun, peerNs []float64
		for t0 := time.Now(); len(peerRun) == 0 || time.Since(t0) < time.Second; {
			peer := run(pw, pw.build(seed), repOpts{})
			if peer == nil {
				return o
			}
			peerRun, peerNs = append(peerRun, float64(peer.run)), append(peerNs, peer.nsPerCommitted())
		}
		if w.replay {
			o.values["record.overhead_ratio"] = ratio(median(production), median(peerRun))
		} else {
			o.values["shard.speedup_vs_seq"] = ratio(median(peerNs), nsPerCommitted)
		}
	}
	o.trace = newTraceFile(w.name, seed, tr, last)
	return o
}

func expandSpec(spec scenario.Spec) (*scenario.Plan, error) {
	rs, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	return rs.Expand()
}

// layerMetrics derives the per-layer metrics one untraced/traced pair of
// reps supports. Counts and ratios of counts come from the untraced rep's
// Stats (identical in both); spans from the traced one.
func layerMetrics(w workload, plain, traced *rep) map[string]float64 {
	st := plain.stats
	c := float64(plain.committed)
	run := float64(traced.run)
	calls, daemon := traced.totals.sum(method.isHandler)
	_, ckpt := traced.totals.sum(method.isCheckpoint)
	all := &traced.totals.All
	captureNs := all[mClone].total() + all[mMark].total()
	restoreNs := all[mRestoreClone].total() + all[mRestore].total() + all[mRewind].total()
	lookups := float64(st.SPFCacheHits + st.SPFCacheMisses + st.RecomputeSkipped)

	v := map[string]float64{
		"scenario.parse_resolve_us": float64(traced.phases["scenario.parse_resolve"]) / 1e3,
		"scenario.expand_ms":        float64(traced.phases["scenario.expand"]) / 1e6,
		"scenario.fingerprint_ms":   float64(traced.phases["scenario.fingerprint"]) / 1e6,
		"boot.ms":                   float64(traced.phases["boot"]) / 1e6,
		"boot.alloc_mb":             float64(traced.bootBytes) / 1e6,

		"daemon.busy_frac":           float64(daemon) / run,
		"daemon.ns_per_call":         ratio(float64(daemon), float64(calls)),
		"daemon.calls_per_committed": float64(calls) / c,

		"routecache.hit_rate":             ratio(float64(st.SPFCacheHits+st.RecomputeSkipped), lookups),
		"routecache.misses_per_committed": float64(st.SPFCacheMisses) / c,

		"checkpoint.capture_ns_per_committed": float64(captureNs) / c,
		"checkpoint.restore_ns_per_rollback":  ratio(float64(restoreNs), float64(st.Rollbacks)),
		"checkpoint.clones_per_committed":     float64(all[mClone].Count+all[mRestoreClone].Count) / c,
		"checkpoint.busy_frac":                float64(ckpt) / run,

		"rollback.speculated_per_committed": float64(st.Deliveries) / c,
		"rollback.rollbacks_per_committed":  float64(st.Rollbacks) / c,
		"rollback.mean_depth":               ratio(float64(st.RollbackDepthSum), float64(st.Rollbacks)),
		"rollback.spurious_frac":            ratio(float64(st.SpuriousRollbacks), float64(st.Rollbacks)),
		"rollback.anti_per_committed":       float64(st.AntiMessages) / c,
		"rollback.defer_hit_rate":           ratio(float64(st.DeferHits), float64(st.Deferred)),
		"rollback.exact_flush_rate":         ratio(float64(st.LookaheadExactFlushes), float64(st.LookaheadHolds)),

		"engine.self_frac": float64(selfTime(traced.run, daemon, ckpt)) / run,

		"gc.cpu_frac": plain.delta.gcCPU / plain.run.Seconds(),
		"gc.cycles":   float64(plain.delta.gcCycles),

		"trace.overhead_frac": traced.nsPerCommitted()/plain.nsPerCommitted() - 1,
	}
	if plain.windows > 0 {
		v["shard.windows"] = float64(plain.windows)
		v["shard.serial_steps"] = float64(plain.serial)
		v["shard.committed_per_window"] = c / float64(plain.windows)
		v["shard.cpu_s_per_wall_s"] = plain.delta.cpu.Seconds() / plain.run.Seconds()
	}
	if w.replay {
		// Stats describe the production run behind the recording, which
		// is set-up here: the replay itself has no rollback layer.
		for name := range v {
			if strings.HasPrefix(name, "rollback.") || strings.HasPrefix(name, "routecache.") {
				v[name] = 0
			}
		}
		v["lockstep.new_ms"] = float64(traced.newReplay) / 1e6
		v["lockstep.ns_per_delivery"] = float64(selfTime(traced.run, daemon)) / c
		v["lockstep.deliveries_per_step"] = c / float64(len(plain.stepsUs))
		v["record.events"] = float64(plain.recEvents)
		v["record.bytes_per_committed"] = float64(plain.recBytes) / c
		v["record.encode_decode_ms"] = float64(plain.encDec) / 1e6
	}
	return v
}
