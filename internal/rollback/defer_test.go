package rollback

import (
	"reflect"
	"testing"

	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// mkMsg builds a group-0 application message from node 0 with the given
// d_i and link sequence (distinct linkSeq keeps keys unique).
func mkMsg(d vtime.Duration, seq uint64, payload int) *msg.Message {
	return mkMsgFrom(0, d, seq, payload)
}

// mkMsgFrom builds a group-0 application message to node 1 from a chosen
// neighbor.
func mkMsgFrom(from msg.NodeID, d vtime.Duration, seq uint64, payload int) *msg.Message {
	return &msg.Message{
		ID:      msg.ID{Sender: from, Seq: seq},
		From:    from,
		To:      1,
		Kind:    msg.KindApp,
		Ann:     msg.Annotation{Origin: from, Seq: seq, Delay: d, Group: 0},
		LinkSeq: seq,
		Payload: payload,
	}
}

func entryOf(m *msg.Message, at vtime.Time) *history.Entry {
	return &history.Entry{Key: ordering.KeyOf(m), Msg: m, ArrivedAt: at}
}

// cellOf is m's arrival as an OO window stores it.
func cellOf(m *msg.Message, at vtime.Time) *history.Cell {
	c := entryOf(m, at).Cell(ordering.Optimized())
	return &c
}

// TestDeferralHoldsSmallGapArrival drives the deferral state machine
// whitebox: an in-order arrival whose key gap to the window tail is below
// DeferSlack parks in the pending buffer, flushes after the gap's
// complement, and counts Deferred/DeferredFlushes/DeferHits.
func TestDeferralHoldsSmallGapArrival(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	e := New(g, floodApps(2), EngineSpec{Seed: ptr[uint64](1)})
	sh := e.shims[1]

	base := mkMsg(10*vtime.Millisecond, 1, 100)
	sh.onEntry(entryOf(base, e.sim.Now()))
	if got := sh.win.Len(); got != 1 {
		t.Fatalf("base entry not delivered: window len %d", got)
	}

	// Gap 1 ms < DeferSlack (8 ms): must defer, not deliver.
	near := mkMsg(11*vtime.Millisecond, 2, 101)
	sh.onEntry(entryOf(near, e.sim.Now()))
	if got := sh.win.Len(); got != 1 {
		t.Fatalf("near entry delivered eagerly: window len %d", got)
	}
	if sh.pend.buf.Len() != 1 {
		t.Fatalf("pending len = %d, want 1", sh.pend.buf.Len())
	}
	if st := e.Stats(); st.Deferred != 1 {
		t.Fatalf("Deferred = %d, want 1", st.Deferred)
	}

	// A mid-gap straggler arriving during the hold delivers immediately
	// (its own gap to the tail is 0.5 ms, so it defers as the new front).
	mid := mkMsg(10*vtime.Millisecond+500*vtime.Microsecond, 3, 102)
	sh.onEntry(entryOf(mid, e.sim.Now()))
	if sh.pend.buf.Len() != 2 {
		t.Fatalf("pending len = %d, want 2", sh.pend.buf.Len())
	}
	if sh.pend.buf.At(0).cell.Msg.ID != mid.ID {
		t.Fatal("mid-gap straggler must front the pending buffer")
	}
	if sh.pend.buf.At(0).due > sh.pend.buf.At(1).due {
		t.Fatal("pending dues must be non-decreasing in key order")
	}

	// Run the simulator until the flush event fires: both flush in key
	// order, no rollback anywhere.
	e.sim.Run(e.sim.Now().Add(20 * vtime.Millisecond))
	if sh.pend.buf.Len() != 0 {
		t.Fatalf("pending not flushed: %d", sh.pend.buf.Len())
	}
	if got := sh.win.Len(); got != 3 {
		t.Fatalf("window len = %d, want 3", got)
	}
	for i, want := range []msg.ID{base.ID, mid.ID, near.ID} {
		if sh.win.At(i).Msg.ID != want {
			t.Fatalf("window[%d] = %v, want %v", i, sh.win.At(i).Msg.ID, want)
		}
	}
	st := e.Stats()
	if st.Rollbacks != 0 {
		t.Fatalf("deferral failed to avoid the rollback: %d", st.Rollbacks)
	}
	if st.Deferred != 2 || st.DeferredFlushes == 0 {
		t.Fatalf("counters: %+v", st)
	}
	if st.DeferHits == 0 {
		t.Fatalf("the overtaken hold must count as a defer hit: %+v", st)
	}
}

// TestDeferralLargeGapDeliversEagerly pins the other half of the rule: a
// gap of DeferSlack or more is its own protection and never waits.
func TestDeferralLargeGapDeliversEagerly(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	e := New(g, floodApps(2), EngineSpec{Seed: ptr[uint64](1)})
	sh := e.shims[1]
	sh.onEntry(entryOf(mkMsg(10*vtime.Millisecond, 1, 100), e.sim.Now()))
	sh.onEntry(entryOf(mkMsg(30*vtime.Millisecond, 2, 101), e.sim.Now()))
	if got := sh.win.Len(); got != 2 {
		t.Fatalf("window len = %d, want 2 (no deferral)", got)
	}
	if st := e.Stats(); st.Deferred != 0 {
		t.Fatalf("Deferred = %d, want 0", st.Deferred)
	}
}

// TestAntiAnnihilatesPendingArrival covers the cheapest unsend: the anti
// arrives while its target is still held, so it is annihilated in the
// buffer with no rollback at all.
func TestAntiAnnihilatesPendingArrival(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	e := New(g, floodApps(2), EngineSpec{Seed: ptr[uint64](1)})
	sh := e.shims[1]
	sh.onEntry(entryOf(mkMsg(10*vtime.Millisecond, 1, 100), e.sim.Now()))
	target := mkMsg(11*vtime.Millisecond, 2, 101)
	sh.onEntry(entryOf(target, e.sim.Now()))
	if sh.pend.buf.Len() != 1 {
		t.Fatalf("target not pending: %d", sh.pend.buf.Len())
	}

	anti := &msg.Message{Kind: msg.KindAnti, From: target.ID.Sender, LinkSeq: target.ID.Seq}
	sh.onAnti(anti)
	st := e.Stats()
	if st.PendingAnnihilated != 1 || sh.pend.buf.Len() != 0 {
		t.Fatalf("annihilation failed: %+v pend=%d", st, sh.pend.buf.Len())
	}
	if st.Rollbacks != 0 || st.LateAnti != 0 {
		t.Fatalf("annihilation must be rollback-free: %+v", st)
	}
	// The idle flush event must cope with the emptied buffer.
	e.sim.Run(e.sim.Now().Add(20 * vtime.Millisecond))
	if sh.win.Len() != 1 {
		t.Fatalf("window len = %d, want 1", sh.win.Len())
	}
}

// TestSpuriousRollbackCounter checks the spurious-rollback classifier on
// the middle node of a line: the displaced delivery (from node 2) only
// forwards toward node 0, and the straggler (from node 0) only forwards
// toward node 2, so the replay regenerates byte-identical annotations,
// re-adopts the original transmission, and the rollback is classified as
// pure speculation churn.
func TestSpuriousRollbackCounter(t *testing.T) {
	g := topology.Line(3, 10*vtime.Millisecond)
	e := New(g, floodApps(3), EngineSpec{Seed: ptr[uint64](1), Deferral: ptr(false)})
	sh := e.shims[1]
	// Deliver out of d_i order: d=20ms (from node 2) first, then the
	// d=10ms straggler (from node 0).
	sh.onEntry(entryOf(mkMsgFrom(2, 20*vtime.Millisecond, 1, 100), e.sim.Now()))
	sh.onEntry(entryOf(mkMsgFrom(0, 10*vtime.Millisecond, 2, 101), e.sim.Now()))
	st := e.Stats()
	if st.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.LazyReuses != 1 {
		t.Fatalf("replay should have re-adopted the forwarded flood: %+v", st)
	}
	if st.SpuriousRollbacks != 1 {
		t.Fatalf("SpuriousRollbacks = %d, want 1: %+v", st.SpuriousRollbacks, st)
	}
	if st.RollbackDepthSum != 2 {
		t.Fatalf("RollbackDepthSum = %d, want 2 (straggler + displaced entry)", st.RollbackDepthSum)
	}

	// Contrast: the same divergence with overlapping forward sets (both
	// messages from node 0) reassigns per-link sequences, so the replay
	// genuinely changes the wire traffic and must NOT count as spurious.
	e2 := New(g, floodApps(3), EngineSpec{Seed: ptr[uint64](1), Deferral: ptr(false)})
	sh2 := e2.shims[1]
	sh2.onEntry(entryOf(mkMsgFrom(0, 20*vtime.Millisecond, 1, 100), e2.sim.Now()))
	sh2.onEntry(entryOf(mkMsgFrom(0, 10*vtime.Millisecond, 2, 101), e2.sim.Now()))
	if st2 := e2.Stats(); st2.Rollbacks != 1 || st2.SpuriousRollbacks != 0 {
		t.Fatalf("overlapping-destination rollback misclassified: %+v", st2)
	}
}

// TestDeferralPreservesDeterminism is the engine-level contract: with
// deferral on (default), off, and at an aggressive slack, every node's
// application log and committed key sequence must be identical — only
// speculation statistics may move.
func TestDeferralPreservesDeterminism(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	var ref [][]string
	var refKeys [][]ordering.Key
	deferRollbacks, eagerRollbacks := uint64(0), uint64(0)
	sawDefer := false
	for seed := uint64(0); seed < 6; seed++ {
		for _, slack := range []vtime.Duration{0, -1, 20 * vtime.Millisecond} {
			spec := EngineSpec{Seed: &seed, JitterScale: ptr(4.0), DeliveryLog: ptr(true)}
			switch {
			case slack < 0:
				spec.Deferral = ptr(false)
			case slack > 0:
				spec.DeferSlack = vtime.Dur(slack)
			}
			logs, keys, e := runScenario(t, g, spec, 4)
			st := e.Stats()
			if st.SettleViolations != 0 {
				t.Fatalf("seed %d slack %v: settle violations: %d", seed, slack, st.SettleViolations)
			}
			switch slack {
			case -1:
				eagerRollbacks += st.Rollbacks
				if st.Deferred != 0 {
					t.Fatalf("disabled deferral must not defer: %+v", st)
				}
			case 0:
				deferRollbacks += st.Rollbacks
				if st.Deferred > 0 {
					sawDefer = true
				}
			}
			if ref == nil {
				ref, refKeys = logs, keys
				continue
			}
			if !reflect.DeepEqual(ref, logs) {
				t.Fatalf("seed %d slack %v: application logs diverged\nref: %v\ngot: %v",
					seed, slack, ref, logs)
			}
			if !reflect.DeepEqual(refKeys, keys) {
				t.Fatalf("seed %d slack %v: committed key sequences diverged", seed, slack)
			}
		}
	}
	if !sawDefer {
		t.Fatal("no seed exercised the deferral path")
	}
	if deferRollbacks >= eagerRollbacks {
		t.Fatalf("deferral did not reduce rollbacks: %d (on) vs %d (off)",
			deferRollbacks, eagerRollbacks)
	}
}

// TestDeferralDisabledForChainOrderings pins the d_i-monotonicity gate:
// under the RO ablation the ordering-key Delay gap between key-adjacent
// entries is meaningless (keys are chain-hash ordered), so deferral must
// disable itself rather than hand out latency-only holds.
func TestDeferralDisabledForChainOrderings(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	_, _, e := runScenario(t, g, EngineSpec{Seed: ptr[uint64](1), Ordering: "RO", OrderingSeed: ptr[uint64](9), JitterScale: ptr(4.0)}, 4)
	if e.deferOn {
		t.Fatal("deferral must be off under a chain-hash ordering")
	}
	if st := e.Stats(); st.Deferred != 0 {
		t.Fatalf("RO run deferred arrivals: %+v", st)
	}
}

// TestAdaptiveSettleBoundsOrdered guards the floor/ceiling relationship
// the engine builds the estimator with: an inverted pair would push the
// live bound below one propagation sweep.
func TestAdaptiveSettleBoundsOrdered(t *testing.T) {
	g := topology.Sprintlink()
	e := New(g, floodApps(g.N), EngineSpec{Seed: ptr[uint64](1)})
	if e.est.floor == e.est.ceil {
		t.Fatal("adaptive estimator not selected")
	}
	if e.est.ceil < e.est.floor {
		t.Fatalf("ceiling %v below floor %v", e.est.ceil, e.est.floor)
	}
	if got := e.settleBoundFor(e.shims[0]); got < e.est.floor {
		t.Fatalf("bound %v below floor %v", got, e.est.floor)
	}
}

// TestSettleViolationStraggler exercises the straggler path: under a
// deliberately too-tight static settle bound, a message held back by
// extreme jitter arrives after larger-keyed entries retired, and the
// engine surfaces the violation instead of mis-ordering silently.
func TestSettleViolationStraggler(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.FromLinks("straggle", 3, []topology.Link{
		{A: 0, B: 1, Delay: 5 * ms, Jitter: ms / 10},
		{A: 2, B: 1, Delay: 5 * ms, Jitter: 400 * ms},
	})
	sawViolation := false
	for seed := uint64(0); seed < 10 && !sawViolation; seed++ {
		as := floodApps(g.N)
		e := New(g, as, EngineSpec{
			Seed:        &seed,
			SettleBound: vtime.Dur(30 * ms), // deliberately tighter than the 400 ms jitter tail
		})
		e.sim.ScheduleFn(0, func() { e.InjectExternal(0, injectEvent{Value: 1}) })
		e.sim.ScheduleFn(0, func() { e.InjectExternal(2, injectEvent{Value: 2}) })
		e.Run(vtime.Time(2 * vtime.Second))
		if !e.RunQuiescent(1_000_000) {
			t.Fatal("did not quiesce")
		}
		if e.Stats().SettleViolations > 0 {
			sawViolation = true
			// The straggler is still applied: every value reaches every
			// node even when exact global order can no longer be pinned.
			for i := 0; i < g.N; i++ {
				if got := len(as[i].(*floodApp).st.log); got != 2 {
					t.Fatalf("node %d saw %d values, want 2", i, got)
				}
			}
		}
	}
	if !sawViolation {
		t.Fatal("no seed produced a settle violation; bound or jitter mistuned")
	}
}

// TestPinnedSettleBoundReadsThePin checks that a pinned SettleBound, run
// as the estimator with floor = ceiling, reads exactly the pin however late
// the arrivals it observes: a 400 ms jitter tail against 5 ms links drives
// the straggler margin far past the pin, and the bound must not move.
func TestPinnedSettleBoundReadsThePin(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.FromLinks("straggle", 3, []topology.Link{
		{A: 0, B: 1, Delay: 5 * ms, Jitter: ms / 10},
		{A: 2, B: 1, Delay: 5 * ms, Jitter: 400 * ms},
	})
	const pin = 30 * vtime.Millisecond
	e := New(g, floodApps(g.N), EngineSpec{Seed: ptr[uint64](1), SettleBound: vtime.Dur(pin)})
	var maxMargin vtime.Duration
	for v := range 20 {
		at := vtime.Time(vtime.Duration(v) * 20 * ms)
		e.sim.ScheduleFn(at, func() { e.InjectExternal(msg.NodeID(2*(v%2)), injectEvent{Value: v}) })
		e.Run(at + vtime.Time(10*ms))
		maxMargin = max(maxMargin, e.est.cached)
		for _, sh := range e.shims {
			if got := e.settleBoundFor(sh); got != pin {
				t.Fatalf("after %d injections: bound %v, want the pin %v", v+1, got, pin)
			}
		}
	}
	if maxMargin <= pin {
		t.Fatalf("largest observed margin %v: the run never tested the pin", maxMargin)
	}
}

// TestAdaptiveSettleEstimator unit-tests the straggler-margin ring.
func TestAdaptiveSettleEstimator(t *testing.T) {
	const iv = vtime.BeaconInterval
	est := newSettleEstimator(300*vtime.Millisecond, 2*vtime.Second)
	if got := est.bound(); got != 300*vtime.Millisecond {
		t.Fatalf("idle bound = %v, want the floor", got)
	}
	est.observe(vtime.Time(10*vtime.Millisecond), 5*vtime.Millisecond)
	if got := est.bound(); got != 300*vtime.Millisecond+4*5*vtime.Millisecond {
		t.Fatalf("bound after 5ms margin = %v", got)
	}
	// Early arrivals (negative margin) clamp to zero and never shrink it.
	est.observe(vtime.Time(20*vtime.Millisecond), -10*vtime.Millisecond)
	if got := est.bound(); got != 320*vtime.Millisecond {
		t.Fatalf("bound after early arrival = %v", got)
	}
	// The margin expires once the horizon slides past its interval.
	past := vtime.Time((settleHorizon + 2) * int64(iv))
	est.observe(past, 0)
	if got := est.bound(); got != 300*vtime.Millisecond {
		t.Fatalf("bound after horizon slide = %v, want the floor", got)
	}
	// The ceiling clamps runaway margins.
	est.observe(past+1, vtime.Second)
	if got := est.bound(); got != 2*vtime.Second {
		t.Fatalf("bound = %v, want the 2s ceiling", got)
	}
}

// TestAdaptiveSettleShrinksQuietWindows checks the estimator's purpose:
// on a quiet topology the adaptive bound retires history faster than the
// static paper rule, so live windows stay smaller, with zero violations.
func TestAdaptiveSettleShrinksQuietWindows(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	run := func(settle vtime.Duration) (maxWin int, e *Engine) {
		as := floodApps(g.N)
		e = New(g, as, EngineSpec{Seed: ptr[uint64](1), SettleBound: vtime.Dur(settle), DeliveryLog: ptr(true)})
		for v := 0; v < 3; v++ {
			v := v
			at := vtime.Time(vtime.Duration(v) * 400 * vtime.Millisecond)
			e.sim.ScheduleFn(at, func() { e.InjectExternal(msg.NodeID(v*3), injectEvent{Value: v}) })
		}
		for step := vtime.Time(0); step < vtime.Time(3*vtime.Second); step += vtime.Time(100 * vtime.Millisecond) {
			e.Run(step)
			for n := 0; n < g.N; n++ {
				if w := e.WindowLen(msg.NodeID(n)); w > maxWin {
					maxWin = w
				}
			}
		}
		e.Run(vtime.Time(3 * vtime.Second))
		e.RunQuiescent(1_000_000)
		return maxWin, e
	}
	adaptiveWin, ea := run(0)
	staticWin, es := run(StaticSettle(g))
	if ea.Stats().SettleViolations != 0 || es.Stats().SettleViolations != 0 {
		t.Fatalf("violations: adaptive %d static %d",
			ea.Stats().SettleViolations, es.Stats().SettleViolations)
	}
	if adaptiveWin > staticWin {
		t.Fatalf("adaptive bound enlarged windows: %d > %d", adaptiveWin, staticWin)
	}
	if ea.est.floor == ea.est.ceil || es.est.floor != es.est.ceil {
		t.Fatal("zero SettleBound must select the adaptive estimator, a pin must fix it")
	}
	// And the committed sequences agree, of course.
	for n := 0; n < g.N; n++ {
		if !reflect.DeepEqual(ea.CommittedKeys(msg.NodeID(n)), es.CommittedKeys(msg.NodeID(n))) {
			t.Fatalf("node %d: adaptive vs static committed keys diverged", n)
		}
	}
}

// TestLookaheadPromiseAntiResetAndIdle drives the per-link lookahead state
// machine whitebox, on node 1's bank alone: a never-active link is covered,
// an app arrival moves the promise to its own d_i prediction (covering
// everything at or below it), an anti resets the promise and re-opens
// coverage anchored at its own arrival (the run-boundary announcement), and
// the idle rule expires the hold once the link has been quiet for hop plus
// twice the slack.
func TestLookaheadPromiseAntiResetAndIdle(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(2, 10*ms)
	const proc, slack = 2 * vtime.Millisecond, 8 * vtime.Millisecond
	look := newLookahead(g, 1, proc, slack)
	hop := look.links[0].hop
	if want := 10*ms + proc; hop != want {
		t.Fatalf("hop = %v, want link delay + processing = %v", hop, want)
	}
	pred := func(d vtime.Duration) vtime.Time {
		return vtime.GroupStart(0, vtime.BeaconInterval).Add(d)
	}
	key := func(d vtime.Duration) ordering.Key {
		return ordering.KeyOf(mkMsg(d, 1, 0))
	}

	// Quiet topology: nothing has ever been in flight, nothing is held.
	if rel := look.release(key(10*ms), 0); rel != 0 {
		t.Fatalf("never-active link induced a hold: release %v", rel)
	}

	// An arrival predicts 20 ms: keys at or below are covered, keys above
	// are held to the link's idle horizon.
	at := vtime.Time(1 * ms)
	look.observe(0, at, pred(20*ms))
	if rel := look.release(key(20*ms), at); rel != 0 {
		t.Fatalf("promise-covered key held: release %v", rel)
	}
	idle := at.Add(hop + 2*slack)
	if rel := look.release(key(30*ms), at); rel != idle {
		t.Fatalf("uncovered key release = %v, want idle horizon %v", rel, idle)
	}

	// An anti is a run boundary: the promise resets, previously covered
	// keys re-open, and the horizon re-anchors at the anti's arrival.
	antiAt := vtime.Time(2 * ms)
	look.observe(0, antiAt, 0)
	idle = antiAt.Add(hop + 2*slack)
	if rel := look.release(key(10*ms), antiAt); rel != idle {
		t.Fatalf("post-anti release = %v, want re-anchored horizon %v", rel, idle)
	}

	// Once the link has been quiet past the horizon the hold expires.
	if rel := look.release(key(10*ms), idle); rel != 0 {
		t.Fatalf("idle link still holding: release %v", rel)
	}

	// Timer batches are local events and never wait on links.
	if rel := look.release(ordering.TimerKey(0, 1), antiAt); rel != 0 {
		t.Fatalf("timer key held: release %v", rel)
	}
}

// TestLookaheadHoldReleasedByCoveringArrival is the exact-hold contract at
// the shim level. An arrival always covers its own in-link (its delivery
// advances that promise before the defer decision), so holds come from
// *other* in-links whose promises still trail the arrival's prediction.
// On the middle node of a line: an in-order arrival whose key gap exceeds
// DeferSlack (so the heuristic rule would deliver it eagerly) parks while
// the far link's promise trails it, the hold releases the moment the far
// link's covering arrival lands (event-driven, well before the idle
// bound), and a hold whose lagging link simply goes quiet releases at the
// idle horizon — every delivery in key order, zero rollbacks.
func TestLookaheadHoldReleasedByCoveringArrival(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(3, 10*ms)
	e := New(g, floodApps(3), EngineSpec{Seed: ptr[uint64](1), Lookahead: ptr(true)})
	if !e.lookOn {
		t.Fatal("Lookahead config did not enable the per-link state")
	}
	sh := e.shims[1]
	pred := func(d vtime.Duration) vtime.Time {
		return vtime.GroupStart(0, vtime.BeaconInterval).Add(d)
	}

	base := mkMsgFrom(0, 10*ms, 1, 100)
	sh.onEntry(entryOf(base, vtime.Time(1*ms)))
	if sh.win.Len() != 1 {
		t.Fatalf("base entry not delivered: window len %d", sh.win.Len())
	}
	// Stage the 2→1 link as active with a 20 ms promise (as if an arrival
	// predicting 20 ms had just landed on it).
	sh.look.observe(2, vtime.Time(1*ms), pred(20*ms))

	// Gap 40 ms >= DeferSlack: no heuristic hold, but the 2→1 promise
	// (20 ms) trails this key's prediction (50 ms) — the arrival parks as
	// a lookahead hold instead of delivering into a possible rollback.
	far := mkMsgFrom(0, 50*ms, 2, 101)
	sh.onEntry(entryOf(far, vtime.Time(1*ms)))
	if sh.win.Len() != 1 || sh.pend.buf.Len() != 1 {
		t.Fatalf("far entry not held: window %d pending %d", sh.win.Len(), sh.pend.buf.Len())
	}
	if !sh.pend.buf.At(0).laHeld {
		t.Fatal("hold not marked as a lookahead hold")
	}
	if st := e.Stats(); st.LookaheadHolds != 1 || st.Deferred != 1 {
		t.Fatalf("hold counters: %+v", st)
	}

	// The covering arrival on the lagging link releases the hold the
	// moment it lands; the cover itself now waits on the 0→1 link (its
	// promise, 50 ms, trails the cover's 60 ms prediction).
	cover := mkMsgFrom(2, 60*ms, 3, 102)
	sh.onEntry(entryOf(cover, vtime.Time(2*ms)))
	if sh.win.Len() != 2 || sh.pend.buf.Len() != 1 {
		t.Fatalf("covering arrival did not release the hold: window %d pending %d",
			sh.win.Len(), sh.pend.buf.Len())
	}
	if sh.pend.buf.At(0).cell.Msg.ID != cover.ID {
		t.Fatal("cover must now front the pending buffer")
	}

	// No covering traffic for the cover's own hold: the 0→1 link goes
	// quiet and the idle rule releases it at the scheduled flush.
	e.sim.Run(vtime.Time(100 * ms))
	if sh.pend.buf.Len() != 0 {
		t.Fatalf("idle release did not flush: pending %d", sh.pend.buf.Len())
	}
	if sh.win.Len() != 3 {
		t.Fatalf("window len = %d, want 3", sh.win.Len())
	}
	for i, want := range []msg.ID{base.ID, far.ID, cover.ID} {
		if sh.win.At(i).Msg.ID != want {
			t.Fatalf("window[%d] = %v, want %v", i, sh.win.At(i).Msg.ID, want)
		}
	}
	st := e.Stats()
	if st.LookaheadHolds != 2 || st.LookaheadExactFlushes != 2 {
		t.Fatalf("want 2 holds, both flushed at their exact release: %+v", st)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("exact holds failed to avoid rollbacks: %d", st.Rollbacks)
	}
}
