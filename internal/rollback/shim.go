package rollback

import (
	"defined/internal/annotate"
	"defined/internal/eventq"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// shim is the per-node DEFINED-RB runtime: it intercepts the node's
// receives and sends (paper §3, the user-space "shim layer"). It holds the
// layers of the package doc's table as value fields and keeps only the
// entry points, where they meet.
//
// The same code runs sequentially or inside a shard's parallel window:
// every shim talks to the simulator through its node's lane (never the Sim
// directly), keeps its counters and drop log per node (summed engine-wide
// at Stats and flushDrops time), and never touches the engine-global settle
// estimator from inside a window — it reads the bound schedule the driver
// precomputes per window (BeginWindow), and the estimator catches up at the
// commit barrier (EndWindow). Everything else a shim owns is per node and
// therefore shard-local by construction; the happens-before edges are the
// window handoff and commit barrier described in the netsim package
// comment.
type shim struct {
	e     *Engine
	id    msg.NodeID
	lane  *netsim.Lane
	app   api.Application
	stats Stats

	look   lookahead
	pend   pending
	win    window
	ledger ledger
	settle settle

	// extGroup and extNext number the node's external events within a
	// beacon group: the group of the latest one and the next sequence in
	// it. A node's group never decreases (the clock is monotone and its
	// skew fixed), so two integers replace a per-group map. They survive
	// crashes: key uniqueness must span incarnations.
	extGroup, extNext uint64

	tick groupTick // the node's self-re-arming timer-batch event

	// crashed marks a quarantined shim (see quarantine in faults.go): a
	// crash fault or a recovered handler panic severed the node from the
	// run. Every entry point discards while set; RestartNode clears it.
	crashed bool
}

// onWire is the netsim delivery handler.
func (sh *shim) onWire(m *msg.Message) {
	switch m.Kind {
	case msg.KindApp:
		key := ordering.KeyOf(m)
		if sh.e.baseline {
			sh.stats.Deliveries++
			sh.deliverBare(key, m, nil, 0)
			return
		}
		sh.onEntry(&history.Entry{
			Key:       key,
			Msg:       m,
			ArrivedAt: sh.lane.Now(),
		})
	case msg.KindAnti:
		sh.onAnti(m)
	default:
		// Control kinds not used by the production engine are ignored.
	}
}

// deliverBare is the unmodified-software path (EngineSpec.Baseline): the
// event goes straight to the application — no ordering, no checkpoints —
// and its outputs are transmitted untracked (ledger.sendBare), since
// nothing is ever unsent.
func (sh *shim) deliverBare(key ordering.Key, m *msg.Message, ext api.ExternalEvent, offset vtime.Duration) {
	outs, c := sh.ledger.sender.Deliver(sh.app, key, m, ext, offset)
	sh.ledger.sendBare(outs, &c)
}

// onEntry routes an arrival through the layers in their fixed order. The
// entry is borrowed for the call: it is ranked once, here, and window and
// buffer copy the resulting cell into their own.
func (sh *shim) onEntry(entry *history.Entry) {
	// Inside a parallel window the engine-global estimator is read-only;
	// the driver pre-simulated this window's observations (BeginWindow)
	// and replays them into the real estimator at the commit barrier.
	isMsg := entry.Key.Class == ordering.ClassMessage
	var pred vtime.Time // the key's d_i arrival prediction
	if isMsg {
		pred = vtime.GroupStart(entry.Key.Group, vtime.BeaconInterval).Add(entry.Key.Delay)
	}
	if isMsg && !sh.lane.InWindow() {
		sh.e.est.observe(entry.ArrivedAt, entry.ArrivedAt.Sub(pred))
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
	if isMsg && sh.look.on() {
		sh.look.observe(entry.Key.From, entry.ArrivedAt, pred)
	}
	c := entry.Cell(sh.e.ord)
	if sh.e.deferOn {
		held, flush := sh.pend.decide(&c, entry.Key, sh.win.Window, &sh.look)
		if flush {
			sh.flushPending()
		}
		if held {
			return
		}
	}
	sh.insertNow(&c)
	// The arrival advanced its in-link's frontier, which may have released
	// a lookahead hold at the front of the pending buffer (front due
	// already passed, coverage was the only blocker) — the event-driven
	// release that lets held entries flush the moment the straggler they
	// were waiting for lands, instead of waiting out the idle horizon.
	if sh.look.on() && sh.pend.buf.Len() > 0 && !sh.pend.buf.At(0).due.After(sh.lane.Now()) {
		sh.flushPending()
	}
}

// insertNow inserts an arrival's cell into the history window and either
// delivers it speculatively (in-order case) or triggers a rollback
// (divergence).
func (sh *shim) insertNow(c *history.Cell) {
	sh.settle.check(c)
	pos, dup := sh.win.insert(c)
	if dup {
		return
	}
	if pos == sh.win.Len()-1 {
		// Arrival matches the pseudorandom sequence: speculative
		// delivery (paper: "If the order is the same as the
		// pseudorandom sequence, the node delivers the event").
		sh.deliverAt(pos, vtime.BaseProcessing+sh.e.cost.PerMessage)
	} else {
		// Divergence: roll back to the point where the sequences diverge
		// and replay in the computed order.
		sh.rollback(pos, false)
	}
	sh.maybeSettle()
}

// onTimerBatch fires the node's virtual-timer batch for group (scheduled
// at the group boundary plus beacon skew).
func (sh *shim) onTimerBatch(group uint64) {
	key := ordering.TimerKey(group, sh.id)
	if sh.e.baseline {
		// The baseline turns the app's timer wheel on the boundaries directly.
		sh.stats.TimerBatches++
		sh.deliverBare(key, nil, nil, 0)
		return
	}
	if sh.crashed {
		sh.stats.QuarantinedDrops++
		return
	}
	sh.stats.TimerBatches++
	sh.onEntry(&history.Entry{
		Key:       key,
		ArrivedAt: sh.lane.Now(),
	})
}

// rollback undoes every delivery at window position >= pos — restoring the
// checkpoint before the first, pooling their sends in the ledger — then,
// with the entry at pos removed first when an anti-message annihilates it,
// replays the window from pos in the computed order, charging rollback
// costs, and retracts whatever the replay did not regenerate.
func (sh *shim) rollback(pos int, annihilate bool) {
	sh.stats.Rollbacks++
	sh.stats.RollbackDepthSum += uint64(sh.win.Len() - pos)
	sh.ledger.undo(sh.win.undo(pos))
	if annihilate {
		sh.win.RemoveAt(pos)
	}
	cost := sh.e.cost
	delay := vtime.BaseProcessing + cost.RollbackFixed
	for i := pos; i < sh.win.Len(); i++ {
		delay += cost.RollbackPerReplay + cost.PerMessage
		sh.deliverAt(i, delay)
	}
	if sh.crashed {
		// A replayed delivery panicked: quarantine already drained the
		// window and the ledger — nothing to cancel, and a crash is not a
		// spurious rollback.
		return
	}
	sh.ledger.retract()
}

// deliverAt checkpoints, stamps a fresh serial, and delivers the window
// entry at position i to the application; outputs are transmitted after
// procDelay of virtual time.
func (sh *shim) deliverAt(i int, procDelay vtime.Duration) {
	// Fresh materializations only make a rollback non-spurious when a
	// *re-delivered* entry (one with a serial) produced them; a rollback's
	// trigger entry is doing its sends for the first time either way.
	entry := sh.win.At(i) // stamp moves no window cell
	replayed := entry.Serial != 0
	serial := sh.win.stamp(i)
	sh.stats.Deliveries++

	outs, c, ok := sh.handleEntry(entry)
	if !ok {
		// The handler panicked: the node is quarantined (see recoverPanic),
		// its outputs died with it — exactly as if the process crashed
		// mid-handler before transmitting anything.
		return
	}
	sh.ledger.send(outs, &c, procDelay, serial, replayed)
}

// handleEntry runs the application handler for one window entry,
// recovering a handler panic into a deterministic crash fault: the shim is
// quarantined (state, speculation and unsent messages lost) and the run
// continues without the node, instead of the panic killing the process.
// ok is false when the handler panicked. Determinism: a panic is a
// function of the application state and the delivered entry, both of
// which are bit-identical across shard counts, so the quarantine lands at
// the same point of the committed order in every mode.
func (sh *shim) handleEntry(entry *history.Cell) (outs []msg.Out, c annotate.Cause, ok bool) {
	defer sh.recoverPanic()
	var ext api.ExternalEvent
	var offset vtime.Duration
	if x := entry.Ext; x != nil {
		ext, offset = x.Event, x.Offset
	}
	outs, c = sh.ledger.sender.Deliver(sh.app, entry.Key(), entry.Msg, ext, offset)
	return outs, c, true
}

// recoverPanic is handleEntry's deferred recovery hook (a method value so
// the hot path defers without allocating a closure).
func (sh *shim) recoverPanic() {
	if r := recover(); r != nil {
		sh.stats.PanicCrashes++
		sh.quarantine()
	}
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
	if sh.look.on() {
		sh.look.observe(m.From, sh.lane.Now(), 0)
	}
	target := msg.ID{Sender: m.From, Seq: m.LinkSeq} // see sendAnti
	pos := sh.win.FindMsg(target)
	if pos < 0 {
		// Still held in the pending buffer: annihilate it there, before
		// it was ever delivered — no rollback needed at all.
		if sh.pend.annihilate(target) {
			return
		}
		// Already settled or never arrived (e.g. dropped in flight).
		sh.stats.LateAnti++
		return
	}
	sh.rollback(pos, true)
	sh.maybeSettle()
}

// maybeSettle retires the entries that arrived before the settle cutoff,
// their checkpoints and the send records of their serials, at most once per
// beacon interval per node.
func (sh *shim) maybeSettle() {
	if sh.crashed {
		return // reached when a delivery panicked mid-insert: nothing to settle
	}
	now := sh.lane.Now()
	if !sh.settle.due(now) {
		return
	}
	cutoff := now.Add(-sh.e.settleBoundFor(sh))
	if cutoff <= 0 {
		return
	}
	if n := sh.settle.retire(sh.win.Window, cutoff); n > 0 {
		last := sh.win.At(n - 1).Serial
		sh.win.retire(n)
		sh.ledger.retire(last)
	}
}

// onFlush is the pending layer's scheduled flush callback (bound once per
// shim); the event that called it is spent.
func (sh *shim) onFlush() {
	sh.pend.flushH = eventq.Handle{}
	if sh.crashed {
		return // quarantine emptied the buffer; a stale flush is a no-op
	}
	sh.flushPending()
}

// flushPending delivers the pending buffer's releasable prefix in key
// order — batched insertion in key order cannot roll anything back, which
// is the whole point: the hold converted a deliver-then-undo sequence into
// a single ordered delivery.
func (sh *shim) flushPending() {
	now := sh.lane.Now()
	n, wake := sh.pend.releasable(now, &sh.look)
	for i := range n {
		c := sh.pend.buf.At(i)
		// The entry enters the window when it flushes; retirement clocks
		// start here, so a hold can never age an entry toward a settle
		// violation.
		c.cell.ArrivedAt = now
		sh.insertNow(&c.cell)
		if sh.crashed {
			return // the delivery panicked: quarantine emptied the buffer
		}
		// The window took its own reference on insert; the buffer's goes,
		// and the cell forgets it so a later quarantine cannot drop it
		// twice. It forgets its rank with it: a cell without its message
		// would derive a key from the rank alone, and a wrong one.
		c.cell.Msg.Release()
		c.cell = history.Cell{}
	}
	sh.pend.drop(n, wake)
}

// settle is a node's retirement state: when it last settled, the largest
// key it ever retired, and (EngineSpec.DeliveryLog) the committed prefix.
// A crash keeps all of it — the committed prefix is history, not node state.
type settle struct {
	last     vtime.Time
	lastKey  ordering.Key  // largest key ever retired
	lastRank ordering.Rank // its rank, read from its cell
	has      bool          // whether anything has retired yet
	log      []ordering.Key

	cmp     ordering.Func
	logging bool // EngineSpec.DeliveryLog
	stats   *Stats
}

// check counts a straggler: an arrival c that sorts before an
// already-retired entry. The entry is still applied (ordered within the
// live window), but exact global order can no longer be guaranteed.
func (s *settle) check(c *history.Cell) {
	if s.has && history.CompareKey(s.cmp, c, s.lastKey, s.lastRank) < 0 {
		s.stats.SettleViolations++
	}
}

// due reports whether a settle pass runs at now — at most once per beacon
// interval — and starts it.
func (s *settle) due(now vtime.Time) bool {
	if now.Sub(s.last) < vtime.BeaconInterval {
		return false
	}
	s.last = now
	return true
}

// retire walks w's prefix that arrived before cutoff exactly once, feeding
// the settled log and the last-retired key as it goes, and returns its
// length: the caller retires that many entries.
func (s *settle) retire(w *history.Window, cutoff vtime.Time) int {
	n := 0
	for ; n < w.Len(); n++ {
		e := w.At(n)
		if !e.ArrivedAt.Before(cutoff) {
			break
		}
		if s.logging {
			s.log = append(s.log, e.Key())
		}
	}
	if n > 0 {
		last := w.At(n - 1)
		s.lastKey, s.lastRank = last.Key(), last.Rank
		s.has = true
	}
	return n
}
