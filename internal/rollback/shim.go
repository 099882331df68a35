package rollback

import (
	"reflect"

	"defined/internal/annotate"
	"defined/internal/checkpoint"
	"defined/internal/eventq"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// shim is the per-node DEFINED-RB runtime: it intercepts the node's
// receives and sends (paper §3, the user-space "shim layer"). All
// simulator interaction goes through the node's lane so the same code
// runs sequentially or inside a shard's parallel window; stats and the
// drop log are per shim for the same reason (summed engine-wide at
// Stats() / flushDrops time).
type shim struct {
	e    *Engine
	id   msg.NodeID
	lane *netsim.Lane
	app  api.Application

	stats   Stats
	dropLog map[msg.ID]record.LossEvent

	// japp is non-nil when the application supports MI undo-journal
	// checkpointing and the engine's strategy selects it: checkpoints are
	// then O(1) journal marks instead of full clones, and restore rewinds
	// the journal in place. FK mode clones by design; under MI only apps
	// from outside internal/scenario (third parties, test doubles) do.
	japp api.Journaled

	win   *history.Window
	ckpts checkpoint.Keeper // ckpts[i] = state before delivering win entry i

	sent   []*sentRec // live (unsettled, un-annulled) sent messages
	serial uint64     // next delivery serial

	// recFree is the sentRec free list: records cycle back once their
	// send event has fired or been cancelled, so steady-state tracking
	// stops allocating. Fresh records come from recSlab in batches, so
	// even the high-water ramp-up costs one allocation per slab rather
	// than one (plus a bound callback) per record.
	recFree []*sentRec
	recSlab []sentRec

	// replayPool holds the undone deliveries' sent records during a
	// rollback replay for lazy cancellation (see rollbackAndReplay).
	replayPool []*sentRec

	// pend is the key-ordered pending buffer of deferred arrivals (see
	// defer.go); flushH/flushAt track the single re-armable flush event
	// and flushFn is its callback, bound once. arrSeq sequences arrivals
	// and directSeq is the arrSeq of the latest non-flush window
	// insertion — together they detect holds that avoided a rollback.
	pend      []pendingArrival
	pendCapLB vtime.Time // lower bound on every pend[i].capAt (see spentThrough)
	flushH    eventq.Handle
	flushAt   vtime.Time
	flushFn   func()
	arrSeq    uint64
	directSeq uint64

	// look is the per-in-link lookahead frontier bank (Config.Lookahead):
	// look[j] tracks the key-domain promise and idle state of the link
	// from neighbor lookNbr[j] (sorted) — see linkLook in defer.go for the
	// coverage reasoning. Shim-local, so feeding it inside a parallel
	// window is race-free and mode-invariant. Nil unless lookahead+deferral
	// are both on.
	look    []linkLook
	lookNbr []msg.NodeID

	// replayFresh counts outputs materialized (not re-adopted) during the
	// current replay; together with an empty leftover pool it identifies
	// spurious rollbacks.
	replayFresh int
	inReplay    bool

	// sender assigns annotations and wire ids; its OriginSeq/LinkSeq
	// counters are part of the checkpointed state so replayed messages
	// come out identical.
	sender *annotate.Sender

	extSeq map[uint64]uint64 // per-group external event counter

	tick groupTick // the node's self-re-arming timer-batch event

	settledLog []ordering.Key // committed deliveries (Config.LogDeliveries)

	lastSettle      vtime.Time
	lastSettledKey  ordering.Key  // largest key ever retired
	lastSettledRank ordering.Rank // its rank, for insertNow's straggler check
	hasSettled      bool

	// crashed marks a quarantined shim (see quarantine in faults.go): a
	// crash fault or a recovered handler panic severed the node from the
	// run. Every entry point discards while set; RestartNode clears it.
	crashed bool

	// winHW is the history window's high-water mark — the bound the fault
	// invariant checker compares against (a wedged window grows without
	// bound; a healthy one is pruned by settlement).
	winHW int
}

// sentRec tracks one transmitted message for potential unsending. Records
// are pooled per shim and implement eventq.Caller, so scheduling a send
// allocates nothing — the record itself is the event payload.
type sentRec struct {
	sh          *shim
	causeSerial uint64
	m           *msg.Message
	ev          eventq.Handle // pending send; zero once on the wire
	wired       bool          // sim.Send succeeded
	dropped     bool          // lost in flight (engine drop log has it)
	sentAt      vtime.Time
}

// Fire performs the physical transmission when the send delay elapses
// (eventq.Caller).
func (rec *sentRec) Fire() {
	sh := rec.sh
	ok := sh.lane.Send(rec.m)
	rec.ev = eventq.Handle{}
	rec.wired = ok
	rec.sentAt = sh.lane.Now()
	if !ok {
		rec.dropped = true
		sh.dropLog[rec.m.ID] = record.LossEvent{Key: ordering.KeyOf(rec.m), To: rec.m.To}
	}
}

// recSlabSize is how many sentRecs one slab allocation provides.
const recSlabSize = 128

// newRec takes a record off the free list, falling back to the current
// slab (a fresh slab is cut when it runs dry; pointers into old slabs stay
// valid because slabs are never resized in place).
func (sh *shim) newRec() *sentRec {
	if n := len(sh.recFree); n > 0 {
		rec := sh.recFree[n-1]
		sh.recFree = sh.recFree[:n-1]
		return rec
	}
	if len(sh.recSlab) == 0 {
		sh.recSlab = make([]sentRec, recSlabSize)
	}
	rec := &sh.recSlab[0]
	sh.recSlab = sh.recSlab[1:]
	rec.sh = sh
	return rec
}

// freeRec recycles a record whose send event has fired or been cancelled,
// releasing the record's reference on its wire message (the receiver's
// history window may still hold the last one).
func (sh *shim) freeRec(rec *sentRec) {
	rec.m.Release()
	rec.causeSerial = 0
	rec.m = nil
	rec.ev = eventq.Handle{}
	rec.wired = false
	rec.dropped = false
	rec.sentAt = 0
	sh.recFree = append(sh.recFree, rec)
}

// shimState is everything a full-snapshot checkpoint must capture beyond
// the simulator: the application state plus the annotation counters. MI
// checkpoints replace it with a journal-mark pair.
type shimState struct {
	app      api.State
	counters annotate.Counters
}

// capture takes one checkpoint: an O(1) mark pair when the app journals
// its mutations (MI), a full clone otherwise (FK or fallback).
func (sh *shim) capture() checkpoint.Checkpoint {
	if sh.japp != nil {
		return checkpoint.Checkpoint{
			App:      sh.japp.JournalMark(),
			Counters: sh.sender.JournalMark(),
		}
	}
	return checkpoint.Checkpoint{State: &shimState{
		app:      sh.app.State().Clone(),
		counters: sh.sender.SnapshotCounters(),
	}}
}

// restore reinstalls checkpoint c: journal rewind for marks, clone
// reinstatement for full snapshots.
func (sh *shim) restore(c checkpoint.Checkpoint) {
	if c.IsMark() {
		sh.japp.JournalRewind(c.App)
		sh.sender.JournalRewind(c.Counters)
		return
	}
	st := c.State.(*shimState)
	// The checkpoint stack keeps ownership of st: hand the app a clone
	// it can adopt and mutate freely.
	sh.app.Restore(st.app.Clone())
	sh.sender.RestoreCounters(st.counters)
}

// ---- wire input -------------------------------------------------------------

// onWire is the netsim delivery handler.
func (sh *shim) onWire(m *msg.Message) {
	switch m.Kind {
	case msg.KindApp:
		if sh.e.cfg.Baseline {
			sh.baselineDeliver(m)
			return
		}
		sh.onEntry(&history.Entry{
			Key:       ordering.KeyOf(m),
			Msg:       m,
			ArrivedAt: sh.lane.Now(),
		})
	case msg.KindAnti:
		sh.onAnti(m)
	default:
		// Control kinds not used by the production engine are ignored.
	}
}

// baselineDeliver is the unmodified-software path: no ordering, no
// checkpoints.
func (sh *shim) baselineDeliver(m *msg.Message) {
	sh.stats.Deliveries++
	outs := sh.app.HandleMessage(m)
	sh.sendOuts(outs, m.Ann, false, 0, 0, vtime.BaseProcessing)
}

// baselineTimer turns the app's timer wheel on beacon boundaries for the
// baseline series.
func (sh *shim) baselineTimer(group uint64) {
	now := vtime.GroupStart(group, sh.e.cfg.BeaconInterval)
	outs := sh.app.HandleTimer(now)
	sh.stats.TimerBatches++
	sh.sendOuts(outs, msg.Annotation{}, true, group, sh.e.skew[sh.id], vtime.BaseProcessing)
}

// ---- speculative delivery and rollback --------------------------------------

// onEntry routes an arrival: it feeds the settle estimator, may park the
// entry in the pending buffer (deterministic arrival deferral), and
// otherwise inserts it into the history window immediately. The entry is
// borrowed for the call: window and buffer copy it into their own cells.
func (sh *shim) onEntry(entry *history.Entry) {
	// Inside a parallel window the engine-global estimator is read-only;
	// the driver pre-simulated this window's observations (BeginWindow)
	// and replays them into the real estimator at the commit barrier.
	isMsg := entry.Key.Class == ordering.ClassMessage
	var pred vtime.Time // the key's d_i arrival prediction
	if isMsg {
		pred = vtime.GroupStart(entry.Key.Group, sh.e.cfg.BeaconInterval).Add(entry.Key.Delay)
	}
	if est := sh.e.est; est != nil && isMsg && !sh.lane.InWindow() {
		est.observe(entry.ArrivedAt, entry.ArrivedAt.Sub(pred))
	}
	// The quarantine guard sits after the estimator feed on purpose:
	// BeginWindow pre-simulates every scheduled app delivery of a parallel
	// window without knowing about quarantines, so the sequential path must
	// observe the same arrivals for the estimator streams to stay
	// mode-invariant. A panic-quarantined node stays up at the simulator
	// (downing it mid-window would shift sequential-vs-sharded drop stats),
	// so its arrivals reach here and are discarded.
	if sh.crashed {
		sh.stats.QuarantinedDrops++
		return
	}
	// The per-link frontier/lag state is shim-local (unlike the
	// engine-global settle estimator above), so it is fed unconditionally —
	// in-window too: a node's own delivery stream carries identical
	// (at, seq) labels in sequential and sharded runs, so the state is
	// mode-invariant.
	if sh.look != nil && isMsg {
		sh.observeLink(entry.Key.From, entry.ArrivedAt, pred)
	}
	rank := sh.e.cfg.Ordering.Rank(entry.Key)
	if sh.e.deferOn {
		if sh.maybeDefer(entry, rank) {
			return
		}
		sh.arrSeq++
		sh.directSeq = sh.arrSeq
	}
	sh.insertNow(entry, rank)
	// The arrival advanced its in-link's frontier, which may have released
	// a lookahead hold at the front of the pending buffer (front due
	// already passed, coverage was the only blocker) — the event-driven
	// release that lets held entries flush the moment the straggler they
	// were waiting for lands, instead of waiting out the idle horizon.
	if sh.look != nil && len(sh.pend) > 0 && !sh.pend[0].due.After(sh.lane.Now()) {
		sh.flushPending()
	}
}

// insertNow inserts an arrival into the history window and either delivers
// it speculatively (in-order case) or triggers a rollback (divergence).
// rank is entry.Key's rank under the engine's ordering.
func (sh *shim) insertNow(entry *history.Entry, rank ordering.Rank) {
	if sh.hasSettled && ordering.CompareRanked(sh.e.cfg.Ordering, entry.Key, rank, sh.lastSettledKey, sh.lastSettledRank) < 0 {
		// A straggler sorted before an already-retired entry: the
		// settle bound was too tight for this arrival. The entry is
		// still applied (ordered within the live window), but exact
		// global order can no longer be guaranteed — surfaced as a
		// violation counter, never silently.
		sh.stats.SettleViolations++
	}
	pos, dup := sh.win.Insert(*entry)
	if dup {
		sh.stats.Duplicates++
		return
	}
	if n := sh.win.Len(); n > sh.winHW {
		sh.winHW = n
	}
	if pos == sh.win.Len()-1 {
		// Arrival matches the pseudorandom sequence: speculative
		// delivery (paper: "If the order is the same as the
		// pseudorandom sequence, the node delivers the event").
		sh.deliverAt(pos, vtime.BaseProcessing+sh.e.cost.PerMessage)
		sh.maybeSettle()
		return
	}
	// Divergence: roll back to the point where the sequences diverge and
	// replay in the computed order.
	sh.undoTo(pos)
	sh.replayFrom(pos)
	sh.maybeSettle()
}

// onTimerBatch fires the node's virtual-timer batch for group (scheduled
// at the group boundary plus beacon skew).
func (sh *shim) onTimerBatch(group uint64) {
	if sh.crashed {
		sh.stats.QuarantinedDrops++
		return
	}
	sh.stats.TimerBatches++
	sh.onEntry(&history.Entry{
		Key:       ordering.TimerKey(group, sh.id),
		ArrivedAt: sh.lane.Now(),
	})
}

// undoTo rolls the node back to the checkpoint preceding window position
// pos: it restores that checkpoint, rewinds the checkpoint stack, and
// pools the undone deliveries' sent records for lazy cancellation. The
// caller then arranges the window (an anti-message removes its target
// entry) and calls replayFrom.
func (sh *shim) undoTo(pos int) {
	sh.stats.Rollbacks++
	sh.stats.RollbackDepthSum += uint64(sh.win.Len() - pos)
	sh.replayFresh = 0

	// Deliveries being undone: every entry at >= pos that has been
	// delivered (a freshly inserted entry has serial 0 and was never
	// delivered; delivered entries have serial >= 1). Serials increase
	// with window position — replays stamp the suffix in window order —
	// so the first one found is the smallest.
	first := uint64(0)
	for i := pos; i < sh.win.Len(); i++ {
		if s := sh.win.At(i).Serial; s != 0 {
			if first == 0 {
				first = s
			}
			sh.stats.RolledBack++
		}
	}

	// Restore the checkpoint taken before the first undone delivery.
	sh.restore(sh.ckpts.At(pos))
	sh.ckpts.TruncateFrom(pos)

	// Pool the undone deliveries' sends for lazy cancellation.
	sh.replayPool = sh.extractCaused(first)
}

// replayFrom replays window entries from pos onward in the computed order,
// charging rollback costs, then retracts whatever the replay did not
// regenerate.
//
// Cancellation is lazy (Time Warp's lazy-cancellation optimization, fair
// game under the paper's Jefferson-based design): the undone deliveries'
// sent messages are pooled, and each replayed output that regenerates an
// identical message simply re-adopts the original — no anti-message, no
// retransmission, no repair-delay shift. Only outputs that genuinely
// changed (or disappeared) after reordering are unsent. Without this,
// repair delays shift downstream arrival times away from their d_i
// estimates and rollbacks avalanche through heavy flood waves.
func (sh *shim) replayFrom(pos int) {
	e := sh.e
	delay := vtime.BaseProcessing + e.cost.RollbackFixed
	for i := pos; i < sh.win.Len(); i++ {
		delay += e.cost.RollbackPerReplay + e.cost.PerMessage
		// Fresh materializations only make a rollback non-spurious when a
		// *re-delivered* entry produced them; the trigger entry (serial
		// still zero) is doing its sends for the first time either way.
		sh.inReplay = sh.win.At(i).Serial != 0
		sh.deliverAt(i, delay)
	}
	sh.inReplay = false
	if sh.crashed {
		// A replayed delivery panicked: quarantine already drained the
		// window, the replay pool and the sent records — nothing to cancel,
		// and a crash is not a spurious rollback.
		return
	}

	// A replay that re-adopted every original send and materialized
	// nothing new changed nothing observable: the rollback was spurious —
	// pure speculation churn.
	if len(sh.replayPool) == 0 && sh.replayFresh == 0 {
		sh.stats.SpuriousRollbacks++
	}

	// Whatever the replay did not regenerate is now genuinely unsent.
	sh.cancelRecs(sh.replayPool)
	sh.replayPool = sh.replayPool[:0]
}

// extractCaused removes and returns the live sent records caused by
// deliveries with serial >= first (0 = nothing was undone). Records are
// appended in delivery order and serials only grow, so sh.sent is sorted
// by causeSerial and the undone records are exactly its tail; the pool
// keeps their order, which decides adoptFromPool's first match.
func (sh *shim) extractCaused(first uint64) []*sentRec {
	if first == 0 {
		return nil
	}
	i := len(sh.sent)
	for i > 0 && sh.sent[i-1].causeSerial >= first {
		i--
	}
	pool := append(sh.replayPool[:0], sh.sent[i:]...)
	sh.sent = sh.sent[:i]
	return pool
}

// deliverAt checkpoints, stamps a fresh serial, and delivers the window
// entry at position i to the application; outputs are transmitted after
// procDelay of virtual time.
func (sh *shim) deliverAt(i int, procDelay vtime.Duration) {
	if sh.ckpts.Len() != i {
		panic("rollback: checkpoint stack misaligned with window")
	}
	sh.ckpts.Push(sh.capture())
	sh.serial++
	serial := sh.serial
	sh.win.SetSerial(i, serial)
	sh.stats.Deliveries++

	entry := sh.win.At(i)
	outs, ok := sh.handleEntry(entry)
	if !ok {
		// The handler panicked: the node is quarantined (see recoverPanic),
		// its outputs died with it — exactly as if the process crashed
		// mid-handler before transmitting anything.
		return
	}
	switch {
	case entry.Key.IsTimer():
		sh.sendOutsTracked(outs, msg.Annotation{}, true, entry.Key.Group, sh.e.skew[sh.id], procDelay, serial)
	case entry.Key.IsExternal():
		sh.sendOutsTracked(outs, msg.Annotation{}, true, entry.Key.Group, entry.Ext.Offset, procDelay, serial)
	default:
		sh.sendOutsTracked(outs, entry.Msg.Ann, false, entry.Key.Group, 0, procDelay, serial)
	}
}

// handleEntry runs the application handler for one window entry,
// recovering a handler panic into a deterministic crash fault: the shim is
// quarantined (state, speculation and unsent messages lost) and the run
// continues without the node, instead of the panic killing the process.
// ok is false when the handler panicked. Determinism: a panic is a
// function of the application state and the delivered entry, both of
// which are bit-identical across shard counts, so the quarantine lands at
// the same point of the committed order in every mode.
func (sh *shim) handleEntry(entry *history.Entry) (outs []msg.Out, ok bool) {
	defer sh.recoverPanic()
	switch {
	case entry.Key.IsTimer():
		now := vtime.GroupStart(entry.Key.Group, sh.e.cfg.BeaconInterval)
		return sh.app.HandleTimer(now), true
	case entry.Key.IsExternal():
		return sh.app.HandleExternal(entry.Ext.Event.(api.ExternalEvent)), true
	default:
		return sh.app.HandleMessage(entry.Msg), true
	}
}

// recoverPanic is handleEntry's deferred recovery hook (a method value so
// the hot path defers without allocating a closure).
func (sh *shim) recoverPanic() {
	if r := recover(); r != nil {
		sh.stats.PanicCrashes++
		sh.quarantine()
	}
}

// ---- sending ----------------------------------------------------------------

// sendOuts transmits outputs without rollback tracking (baseline mode).
func (sh *shim) sendOuts(outs []msg.Out, parent msg.Annotation, fresh bool, group uint64, freshOffset, procDelay vtime.Duration) {
	for _, out := range outs {
		m := sh.sender.Build(out, parent, fresh, group, freshOffset)
		sh.scheduleBaselineSend(m, procDelay)
	}
}

// sendOutsTracked transmits outputs and records them for unsending.
// During a rollback replay, an output identical to a pooled original
// (lazy cancellation) re-adopts it instead of retransmitting.
func (sh *shim) sendOutsTracked(outs []msg.Out, parent msg.Annotation, fresh bool, group uint64, freshOffset, procDelay vtime.Duration, causeSerial uint64) {
	for _, out := range outs {
		// Prepare advances the sender counters without allocating; the
		// message struct is only materialized when no pooled original
		// stands for the output (replays re-adopt most of theirs).
		ann, ls := sh.sender.Prepare(out, parent, fresh, group, freshOffset)
		if rec := sh.adoptFromPool(out.To, ordering.KeyOfSend(sh.id, ann, ls), out.Payload); rec != nil {
			rec.causeSerial = causeSerial
			sh.sent = append(sh.sent, rec)
			continue
		}
		rec := sh.newRec()
		rec.causeSerial = causeSerial
		rec.m = sh.sender.Materialize(out, ann, ls)
		if sh.inReplay {
			sh.replayFresh++
		}
		sh.sent = append(sh.sent, rec)
		sh.scheduleSend(rec, procDelay)
	}
}

// adoptFromPool matches a regenerated output against the lazy-cancellation
// pool: identical destination, ordering key and payload mean the original
// transmission stands for the replayed output.
func (sh *shim) adoptFromPool(to msg.NodeID, key ordering.Key, payload any) *sentRec {
	for i, rec := range sh.replayPool {
		if rec.m.To != to || ordering.KeyOf(rec.m) != key {
			continue
		}
		if !sh.payloadEqual(rec.m.Payload, payload) {
			continue
		}
		sh.replayPool = append(sh.replayPool[:i], sh.replayPool[i+1:]...)
		sh.stats.LazyReuses++
		return rec
	}
	return nil
}

// payloadEqual compares two payloads on the rollback-replay critical path:
// typed comparison when the payload implements msg.PayloadEq (all shipped
// daemons do), then direct == for comparable built-in payloads (strings,
// numerics — the kinds ad-hoc test applications send). Reflection is the
// third-party escape hatch only, and every use is counted in
// Stats.ReflectFallbacks so silent reflection on the hot path is
// test-visible instead of creeping back unnoticed.
func (sh *shim) payloadEqual(a, b any) bool {
	if pe, ok := a.(msg.PayloadEq); ok {
		return pe.PayloadEqual(b)
	}
	switch av := a.(type) {
	case nil:
		return b == nil
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case int:
		bv, ok := b.(int)
		return ok && av == bv
	case int32:
		bv, ok := b.(int32)
		return ok && av == bv
	case int64:
		bv, ok := b.(int64)
		return ok && av == bv
	case uint64:
		bv, ok := b.(uint64)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	}
	sh.stats.ReflectFallbacks++
	return reflect.DeepEqual(a, b)
}

// cancelRecs retracts sent records whose outputs the replay did not
// regenerate: pending sends are cancelled; wired sends get an
// anti-message; known-dropped sends just retract their loss record. The
// retracted records return to the free list.
func (sh *shim) cancelRecs(recs []*sentRec) {
	for _, rec := range recs {
		switch {
		case !rec.ev.IsZero():
			// Not yet on the wire: silently cancel. The send callback
			// zeroes rec.ev when it fires, so a non-zero handle here is
			// always live — and even a stale one would be a safe no-op
			// thanks to the queue's generation counters.
			sh.lane.Cancel(rec.ev)
		case rec.dropped:
			// Lost (at send time or in flight): retract the recorded
			// loss event instead of sending an anti.
			delete(sh.dropLog, rec.m.ID)
		default:
			sh.sendAnti(rec.m)
		}
		sh.freeRec(rec)
	}
}

// scheduleSend queues rec's physical transmission after procDelay; the
// record is its own event payload (eventq.Caller), so tracked
// transmission costs no per-send closure.
//
// A send-time drop (link or peer down when the packet would leave) is a
// nondeterministic loss exactly like an in-flight drop — whether the packet
// escapes before a failure depends on physical timing — so it is recorded
// as a loss event for replay (paper footnote 4).
func (sh *shim) scheduleSend(rec *sentRec, procDelay vtime.Duration) {
	rec.ev = sh.lane.AfterCall(procDelay, rec)
	rec.sentAt = sh.lane.Now()
}

// scheduleBaselineSend queues an untracked transmission (baseline mode:
// nothing is ever unsent). The closure owns the builder's reference and
// releases it once the simulator has taken (or refused) the message.
func (sh *shim) scheduleBaselineSend(m *msg.Message, procDelay vtime.Duration) {
	sim := sh.e.sim
	sim.After(procDelay, func() {
		sim.Send(m)
		m.Release()
	})
}

// antiPayload identifies the message to roll back.
type antiPayload struct {
	Target msg.ID
}

// sendAnti emits the "unsend" notification chasing message m on its link.
// FIFO links guarantee the anti arrives after the original.
func (sh *shim) sendAnti(orig *msg.Message) {
	sh.stats.AntiMessages++
	sh.sender.MsgSeq++
	// Anti-messages are transient control traffic: the simulator recycles
	// the struct through its pool right after the receiver's handler
	// returns, so steady-state rollback traffic stops allocating wrappers.
	// The lane pool keeps that true across shard boundaries (the receiving
	// shard's release goes back to this shard's concurrent pool).
	anti := sh.lane.Pool().Get()
	anti.ID = msg.ID{Sender: sh.id, Seq: sh.sender.MsgSeq}
	anti.From = sh.id
	anti.To = orig.To
	anti.Kind = msg.KindAnti
	anti.Payload = antiPayload{Target: orig.ID}
	sh.lane.Send(anti)
	anti.Release() // the simulator's in-flight reference carries it from here
}

// onAnti processes a received unsend notification: if the target was
// delivered, roll back to just before it, annihilate it, and replay the
// rest; the rollback cascades through our own unsends.
func (sh *shim) onAnti(m *msg.Message) {
	// Anti-messages are control traffic the simulator delivers regardless
	// of node state, so a quarantined shim sees them too — and discards
	// them: its window is gone, there is nothing left to annihilate.
	if sh.crashed {
		sh.stats.QuarantinedDrops++
		return
	}
	// An anti marks a run boundary on its link: the sender rolled back and
	// its replacement sends are right behind (FIFO). Reset the link's
	// lookahead promise before processing, so coverage stops trusting the
	// retracted run.
	if sh.look != nil {
		sh.observeAnti(m.From, sh.lane.Now())
	}
	target := m.Payload.(antiPayload).Target
	pos := sh.win.FindMsg(target)
	if pos < 0 {
		// Still held in the pending buffer: annihilate it there, before
		// it was ever delivered — no rollback needed at all.
		if sh.annihilatePending(target) {
			return
		}
		// Already settled or never arrived (e.g. dropped in flight).
		sh.stats.LateAnti++
		return
	}
	sh.undoTo(pos)
	sh.win.RemoveAt(pos)
	sh.replayFrom(pos)
	sh.maybeSettle()
}

// findSent locates the live sent record for a wire id.
func (sh *shim) findSent(id msg.ID) *sentRec {
	for _, rec := range sh.sent {
		if rec.m.ID == id {
			return rec
		}
	}
	return nil
}

// ---- settlement -------------------------------------------------------------

// maybeSettle retires history entries older than the settle bound. Runs at
// most once per beacon interval per node. The retiring prefix is walked
// exactly once: the scan feeds the settled log and the last-retired key as
// it goes, then Retire commits it.
func (sh *shim) maybeSettle() {
	if sh.crashed {
		return // reached when a delivery panicked mid-insert: nothing to settle
	}
	now := sh.lane.Now()
	if now.Sub(sh.lastSettle) < sh.e.cfg.BeaconInterval {
		return
	}
	sh.lastSettle = now
	cutoff := now.Add(-sh.e.settleBoundFor(sh))
	if cutoff <= 0 {
		return
	}
	logging := sh.e.cfg.LogDeliveries
	n := 0
	for ; n < sh.win.Len(); n++ {
		e := sh.win.At(n)
		if !e.ArrivedAt.Before(cutoff) {
			break
		}
		if logging {
			sh.settledLog = append(sh.settledLog, e.Key)
		}
	}
	if n > 0 {
		sh.lastSettledKey = sh.win.At(n - 1).Key
		sh.win.Retire(n)
		sh.ckpts.DropFirst(n)
		sh.compactJournals()
		sh.lastSettledRank = sh.e.cfg.Ordering.Rank(sh.lastSettledKey)
		sh.hasSettled = true
	}
	// Prune sent records whose cause has settled: a record sent before
	// the cutoff was caused by an entry that arrived no later, which has
	// retired — it can never be unsent now.
	kept := sh.sent[:0]
	for _, rec := range sh.sent {
		if rec.ev.IsZero() && rec.sentAt.Before(cutoff) {
			sh.freeRec(rec)
			continue
		}
		kept = append(kept, rec)
	}
	sh.sent = kept
	// Drop stale per-group external counters (two settle windows back).
	staleGroup := vtime.GroupOf(cutoff, sh.e.cfg.BeaconInterval)
	for g := range sh.extSeq {
		if g+2 < staleGroup {
			delete(sh.extSeq, g)
		}
	}
}

// compactJournals discards undo-journal prefixes no surviving checkpoint
// can reach: settlement just dropped the oldest checkpoints, so the new
// oldest mark bounds every future rewind. With the stack empty, everything
// recorded so far is unreachable and the journals compact to their heads.
func (sh *shim) compactJournals() {
	if sh.japp == nil {
		return
	}
	if app, ctr, ok := sh.ckpts.OldestMarks(); ok {
		sh.japp.JournalCompact(app)
		sh.sender.JournalCompact(ctr)
		return
	}
	if sh.ckpts.Len() == 0 {
		sh.japp.JournalCompact(sh.japp.JournalMark())
		sh.sender.JournalCompact(sh.sender.JournalMark())
	}
}
