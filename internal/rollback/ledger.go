package rollback

import (
	"slices"

	"defined/internal/annotate"
	"defined/internal/eventq"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/slide"
	"defined/internal/vtime"
)

// ledger is a node's send ledger: every transmitted message that may still
// have to be unsent, and the losses recorded against them (dropLog, replayed
// as loss events, paper footnote 4).
//
// Cancellation is lazy (Time Warp's lazy-cancellation optimization, fair
// game under the paper's Jefferson-based design): a rollback pools the
// undone deliveries' records (undo), each replayed output that regenerates
// an identical message simply re-adopts the original — no anti-message, no
// retransmission, no repair-delay shift — and only outputs that genuinely
// changed or disappeared are unsent (retract). Without this, repair delays
// shift downstream arrival times away from their d_i estimates and
// rollbacks avalanche through heavy flood waves.
type ledger struct {
	sent        slide.Buf[*sentRec] // live sends: cause unretired (or send unfired), sorted by causeSerial
	recs        *recStore           // the lane's records, shared with its other ledgers
	replayPool  []*sentRec          // the undone deliveries' records during a replay
	replayFresh int                 // outputs the current replay materialized, not re-adopted
	dropLog     map[msg.ID]record.LossEvent

	id     msg.NodeID
	lane   *netsim.Lane
	sender *annotate.Sender
	stats  *Stats
}

// sentRec tracks one transmitted message until its cause retires, for
// unsending (a baseline send's record only carries it to the wire). Records
// come from the lane's recStore and implement eventq.Caller, so scheduling
// a send allocates nothing — the record itself is the event payload.
type sentRec struct {
	l           *ledger
	causeSerial uint64 // the causing delivery's serial; while free: the store's next free cell + 1, 0 for none
	m           *msg.Message
	ev          eventq.Handle // pending send; zero once on the wire
	dropped     bool          // lost in flight (the drop log has it)
	bare        bool          // a baseline send: untracked, freed once it fires
	cell        uint32        // the record's place in its store, fixed when it is cut
}

// Fire performs the physical transmission when the send delay elapses
// (eventq.Caller). A send-time drop (link or peer down when the packet
// would leave) is a nondeterministic loss exactly like an in-flight drop —
// whether the packet escapes before a failure depends on physical timing —
// so it is recorded as a loss event for replay (paper footnote 4).
func (rec *sentRec) Fire() {
	l := rec.l
	ok := l.lane.Send(rec.m)
	if rec.bare {
		l.freeRec(rec)
		return
	}
	rec.ev = eventq.Handle{}
	if !ok {
		rec.dropped = true
		l.dropLog[rec.m.ID] = record.LossEvent{Key: ordering.KeyOf(rec.m), To: rec.m.To}
	}
}

// recStore holds the sentRecs of every ledger on one lane (the whole
// engine in sequential mode): fixed slabs of recSlabSize records and a
// LIFO free list chained through the free records' causeSerial. A lane's
// ledgers run only on that lane and a crash reset runs between windows,
// so it takes no lock. Sharing the store across a lane's nodes leaves no
// per-node slab half used, and the chain costs no buffer that grows with
// the number of records freed at once.
type recStore struct {
	slabs []*[recSlabSize]sentRec
	cut   uint32 // records cut from the slabs so far
	free  uint64 // the most recently freed record's cell + 1, 0 for none
}

// recSlabSize is how many sentRecs one slab allocation provides.
const recSlabSize = 128

func (s *recStore) at(cell uint32) *sentRec {
	return &s.slabs[cell/recSlabSize][cell%recSlabSize]
}

// get hands ledger l a zeroed record: the most recently freed one, or a
// fresh cut (a new slab every recSlabSize cuts; slabs never move, so
// pointers into them stay valid).
func (s *recStore) get(l *ledger) *sentRec {
	var rec *sentRec
	if s.free != 0 {
		rec = s.at(uint32(s.free - 1))
		s.free, rec.causeSerial = rec.causeSerial, 0
	} else {
		if s.cut%recSlabSize == 0 {
			s.slabs = append(s.slabs, new([recSlabSize]sentRec))
		}
		rec = s.at(s.cut)
		rec.cell = s.cut
		s.cut++
	}
	rec.l = l
	return rec
}

// freeRec recycles a record whose send event has fired or been cancelled,
// releasing the record's reference on its wire message (the receiver's
// history window may still hold the last one).
func (l *ledger) freeRec(rec *sentRec) {
	rec.m.Release()
	s := l.recs
	*rec = sentRec{causeSerial: s.free, cell: rec.cell}
	s.free = uint64(rec.cell) + 1
}

// sendBare transmits a baseline delivery's outputs after the base
// processing delay, untracked: nothing is ever unsent, so each record only
// carries its message to the wire and is freed as it fires, releasing the
// builder's reference.
func (l *ledger) sendBare(outs []msg.Out, c *annotate.Cause) {
	for _, out := range outs {
		rec := l.recs.get(l)
		rec.bare = true
		rec.m = l.sender.Build(out, c)
		l.lane.AfterCall(vtime.BaseProcessing, rec)
	}
}

// send transmits the outputs of the delivery with serial causeSerial, whose
// cause is c, after procDelay and records them for unsending. During a
// rollback replay an output identical to a pooled original re-adopts it
// instead of retransmitting; replayed says the delivery is a re-delivery,
// whose fresh outputs make the rollback non-spurious.
func (l *ledger) send(outs []msg.Out, c *annotate.Cause, procDelay vtime.Duration, causeSerial uint64, replayed bool) {
	for _, out := range outs {
		// Prepare advances the sender counters without allocating; the
		// message struct is only materialized when no pooled original
		// stands for the output (replays re-adopt most of theirs).
		ann, ls := l.sender.Prepare(out, c)
		if rec := l.adopt(out.To, ordering.KeyOfSend(l.id, ann, ls), out.Payload); rec != nil {
			rec.causeSerial = causeSerial
			l.sent.Push(rec)
			continue
		}
		rec := l.recs.get(l)
		rec.causeSerial = causeSerial
		rec.m = l.sender.Materialize(out, ann, ls)
		if replayed {
			l.replayFresh++
		}
		l.sent.Push(rec)
		rec.ev = l.lane.AfterCall(procDelay, rec)
	}
}

// adopt matches a regenerated output against the lazy-cancellation pool:
// identical destination, ordering key and payload mean the original
// transmission stands for the replayed output.
func (l *ledger) adopt(to msg.NodeID, key ordering.Key, payload any) *sentRec {
	for i, rec := range l.replayPool {
		if rec.m.To != to || ordering.KeyOf(rec.m) != key {
			continue
		}
		if !payloadEqual(rec.m.Payload, payload) {
			continue
		}
		l.replayPool = append(l.replayPool[:i], l.replayPool[i+1:]...)
		l.stats.LazyReuses++
		return rec
	}
	return nil
}

// payloadEqual compares two payloads on the rollback-replay critical path:
// through msg.PayloadEq when the payload implements it (all shipped daemons
// do), and with == otherwise. == cannot panic here: annotate.Sender.Deliver
// rejected every payload that is neither at its first send.
func payloadEqual(a, b any) bool {
	if pe, ok := a.(msg.PayloadEq); ok {
		return pe.PayloadEqual(b)
	}
	return a == b
}

// undo starts a replay: the live records caused by deliveries with serial
// >= first (0 = nothing was undone) move to the replay pool. Records are
// appended in delivery order and serials only grow, so sent is sorted by
// causeSerial and those records are exactly its tail
// (TestSentRecordsOrderedByCause); the pool keeps their order, which
// decides adopt's first match.
func (l *ledger) undo(first uint64) {
	l.replayFresh = 0
	l.replayPool = l.replayPool[:0]
	if first == 0 {
		return
	}
	n := l.sent.Len()
	i := n
	for i > 0 && (*l.sent.At(i - 1)).causeSerial >= first {
		i--
	}
	l.replayPool = slices.Grow(l.replayPool, n-i) // one growth, not one per piece
	for j := i; j < n; {
		s := l.sent.Span(j)
		l.replayPool = append(l.replayPool, s...)
		j += len(s)
	}
	l.sent.Truncate(i)
}

// retract ends a replay: whatever it did not regenerate is now genuinely
// unsent. Pending sends are cancelled; wired sends get an anti-message;
// known-dropped sends just retract their loss record. A replay that
// re-adopted every original send and materialized nothing new changed
// nothing observable: the rollback was spurious — pure speculation churn.
func (l *ledger) retract() {
	if len(l.replayPool) == 0 && l.replayFresh == 0 {
		l.stats.SpuriousRollbacks++
	}
	for _, rec := range l.replayPool {
		switch {
		case !rec.ev.IsZero():
			// Not yet on the wire: silently cancel. Fire zeroes rec.ev, so
			// a non-zero handle here is always live — and even a stale one
			// would be a safe no-op thanks to the queue's generation
			// counters.
			l.lane.Cancel(rec.ev)
		case rec.dropped:
			// Lost (at send time or in flight): retract the recorded loss
			// event instead of sending an anti.
			delete(l.dropLog, rec.m.ID)
		default:
			l.sendAnti(rec.m)
		}
		l.freeRec(rec)
	}
	l.replayPool = l.replayPool[:0]
}

// sendAnti emits the "unsend" notification chasing message orig on its
// link. FIFO links guarantee the anti arrives after the original. The
// anti names its target without a payload: the target's Sender is the
// anti's From, and its Seq rides in LinkSeq, which an anti has no other
// use for.
func (l *ledger) sendAnti(orig *msg.Message) {
	l.stats.AntiMessages++
	l.sender.MsgSeq++
	// Anti-messages are transient control traffic: the simulator recycles
	// the struct through its pool right after the receiver's handler
	// returns, so steady-state rollback traffic stops allocating wrappers.
	// The lane pool keeps that true across shard boundaries (the receiving
	// shard's release goes back to this shard's concurrent pool).
	anti := l.lane.Pool().Get()
	anti.ID = msg.ID{Sender: l.id, Seq: l.sender.MsgSeq}
	anti.From = l.id
	anti.To = orig.To
	anti.Kind = msg.KindAnti
	anti.LinkSeq = orig.ID.Seq
	l.lane.Send(anti)
	anti.Release() // the simulator's in-flight reference carries it from here
}

// dropped records m, one of this node's sends, as lost in flight; its
// record is marked so a later rollback retracts the loss event instead of
// sending an anti.
func (l *ledger) dropped(m *msg.Message) {
	l.dropLog[m.ID] = record.LossEvent{Key: ordering.KeyOf(m), To: m.To}
	for i := range l.sent.Len() {
		if rec := *l.sent.At(i); rec.m.ID == m.ID {
			rec.dropped = true
			return
		}
	}
}

// retire frees the records of retired deliveries: the prefix of sent
// caused by serials up to last, the last window entry a settle pass
// retired. A retired cause can never be undone, so neither can its sends.
// A record whose send has not fired yet stops the walk; the next
// retirement frees it.
func (l *ledger) retire(last uint64) {
	n := 0
	for ; n < l.sent.Len(); n++ {
		rec := *l.sent.At(n)
		if rec.causeSerial > last || !rec.ev.IsZero() {
			break
		}
		l.freeRec(rec)
	}
	l.sent.DropFront(n)
}

// reset drops every record in a crash. Unsent messages die with the node
// (silent cancel); wired ones were really transmitted and stand — a crash
// is not a rollback. The drop log stays: recorded losses happened.
func (l *ledger) reset() {
	l.each(func(rec *sentRec) {
		if !rec.ev.IsZero() {
			l.lane.Cancel(rec.ev)
		}
		l.freeRec(rec)
	})
	l.sent.Truncate(0)
	l.replayPool = l.replayPool[:0]
}

// held passes note every message the live records reference.
func (l *ledger) held(note func(*msg.Message)) {
	l.each(func(rec *sentRec) { note(rec.m) })
}

// each calls f on every live record: sent, then the replay pool.
func (l *ledger) each(f func(*sentRec)) {
	for i := range l.sent.Len() {
		f(*l.sent.At(i))
	}
	for _, rec := range l.replayPool {
		f(rec)
	}
}
