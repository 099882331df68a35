package rollback

import (
	"defined/internal/eventq"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/slide"
	"defined/internal/topology"
	"defined/internal/vtime"
)

const (
	// lookBudgetMult widens the per-arrival hold budget when per-link
	// lookahead is on: coverage releases through upstream hold chains run
	// later than the heuristic dues the 100 ms default was sized for, and
	// clipping them forfeits the exact hold's whole point. 2× is where the
	// rollback reduction saturates on the link-flap workload (3× and 4×
	// are bit-identical — the budget is a safety net, not a release path).
	lookBudgetMult = 2
	// maxPending bounds the per-shim pending buffer; overflow flushes the
	// oldest keys immediately, so the buffer can never grow with load.
	maxPending = 128
)

// pending is a node's deferral buffer: deterministic arrival deferral, the
// rollback-avoidance fast path.
//
// Speculation is only profitable when the guess is usually right. The
// ordering function's d_i field predicts arrival times, so an arrival whose
// key sorts only a small Delay gap past the window tail is exactly the one
// d_i predicts may still have predecessors in flight (any message keyed into
// that gap) — delivering it eagerly buys nothing but a rollback when one
// lands. Instead the layer holds such arrivals in a small key-ordered buffer
// for the gap's complement (DeferSlack − gap, at most DeferMax) and flushes
// them on a single re-armable eventq event, batching at the d_i quantum the
// way buffering deterministic-execution systems batch at quantum boundaries.
// A straggler running up to the hold later still lands first and is
// delivered in place; the flush then inserts the batch in key order, which
// by construction cannot roll anything back. Anti-messages whose target is
// still pending annihilate it in the buffer — an unsend with no rollback at
// all. Deferral needs d_i-monotone keys, so it is off under chain-hash
// orderings like RO.
//
// Guarantee: deferral never changes what the node computes, only when.
// Entries enter the same history window in the same ordering-function
// positions, and Theorem 1 makes the committed order a function of the
// ordering function and the external events alone; the knobs move
// speculation dynamics (rollback counts, window occupancy, convergence
// latency by at most the hold) and nothing else — the cross-mode golden
// pins committed orders and tables defer-on vs defer-off.
//
// arrSeq sequences arrivals and directSeq is the arrSeq of the latest
// non-flush window insertion — together they detect holds that avoided a
// rollback. flushH/flushAt track the single flush event and flushFn is its
// callback, bound once.
type pending struct {
	buf       slide.Buf[pendingArrival]
	capLB     vtime.Time // lower bound on every buffered capAt (see spentThrough)
	flushH    eventq.Handle
	flushAt   vtime.Time
	flushFn   eventq.Func
	arrSeq    uint64
	directSeq uint64

	cmp    ordering.Func
	slack  vtime.Duration // EngineSpec.DeferSlack
	max    vtime.Duration // EngineSpec.DeferMax, the longest single hold
	budget vtime.Duration // per-arrival cap on any hold, widened under lookahead
	lane   *netsim.Lane
	stats  *Stats
}

// pendingArrival is one deferred entry in the pending buffer. due
// is the flush time: the entry's own gap-complement hold, raised to what
// its key predecessors were holding for when it arrived (queuing behind a
// held predecessor extends the wait — deliberately sticky, since a long
// chained hold is exactly quantum buffering through a churn storm), but
// never past capAt, the entry's own arrival+budget. seq is the
// buffer's arrival sequence at deferral time: any smaller-keyed arrival
// processed with a larger sequence overtook this entry during its hold,
// meaning the deferral avoided a rollback (Stats.DeferHits). held records
// whether the entry ever actually waited (a zero-length hold that only
// queued for key order is not a deferral in the Stats sense).
// laHeld marks an entry the flush has held past its heuristic due for
// per-link frontier coverage (the lookahead hold, counted once per entry in
// Stats.LookaheadHolds); when such an entry eventually flushes covered —
// rather than forced out by its budget or buffer overflow — it
// counts toward Stats.LookaheadExactFlushes.
// cell is the arrival as the window will store it — its key's rank, not
// the key — so decide's position scan compares two integers per cell and
// derives keys only when two ranks tie. A cell is 80 bytes — an insertion
// moves a dozen of them — so nothing goes in that is not read.
type pendingArrival struct {
	cell   history.Cell
	capAt  vtime.Time
	due    vtime.Time
	seq    uint64
	held   bool
	laHeld bool
}

// holdFor computes how long an arrival should be held given the key it
// would be delivered right after. The hold is the complement of the
// ordering-key gap: d_i predicts arrival times, so an arrival whose Delay
// exceeds its predecessor's by gap < DeferSlack has predicted
// predecessors within the gap that may still be in flight — delivering it
// eagerly risks a rollback the moment one lands, and a straggler running
// up to slack−gap later than this arrival still sorts before it. A gap of
// DeferSlack or more is its own protection (a straggler would have to run
// that much later relative to this arrival to displace it), and timer
// batches and externals are local events that never wait.
func (p *pending) holdFor(k, prev ordering.Key) vtime.Duration {
	if k.Class != ordering.ClassMessage {
		return 0
	}
	var prevDelay vtime.Duration
	if prev.Group == k.Group && prev.Class == ordering.ClassMessage {
		prevDelay = prev.Delay
	}
	gap := k.Delay - prevDelay
	if gap >= p.slack {
		return 0
	}
	return min(p.slack-gap, p.max)
}

// decide takes an arrival — its cell arr, and key, the key arr derives —
// into the buffer instead of the history window win when it should wait.
// held reports that the entry was consumed
// (deferred, or dropped as a pending duplicate); flush, that the buffer's
// front is already due and the caller must flush now.
//
// Invariant: every live window entry sorts strictly before every pending
// entry, and pending dues are non-decreasing in key order. Arrivals
// sorting after a pending entry therefore must queue behind it —
// delivering them first would guarantee a rollback when the pending
// entries flush.
func (p *pending) decide(arr *history.Cell, key ordering.Key, win *history.Window, look *lookahead) (held, flush bool) {
	now := p.lane.Now()
	// Insertion position in the (small, key-ordered) buffer. The ranks
	// decide nearly every cell; history.CompareKey spelled out, so a
	// buffered cell derives its key only when two ranks tie.
	pos := p.buf.Len()
scan:
	for pos > 0 {
		s := p.buf.SpanBefore(pos)
		for k := len(s) - 1; k >= 0; k-- {
			c := &s[k].cell
			if c.Rank.Less(arr.Rank) {
				break scan
			}
			if !arr.Rank.Less(c.Rank) {
				cmp := p.cmp.Compare(c.Key(), key)
				if cmp < 0 {
					break scan
				}
				if cmp == 0 {
					p.stats.Duplicates++
					return true, false
				}
			}
			pos--
		}
	}
	var due vtime.Time
	if pos == 0 {
		// Fronts the buffer: its predecessor is the window tail.
		if n := win.Len(); n > 0 {
			tail := win.At(n - 1)
			if history.CompareKey(p.cmp, tail, key, arr.Rank) >= 0 {
				return p.direct(), false // diverging (or dup): take the rollback now
			}
			due = now.Add(p.holdFor(key, tail.Key()))
		} else {
			if !look.on() {
				return p.direct(), false // nothing to misorder against yet
			}
			// An empty window has nothing to misorder against, but with
			// lookahead on an uncovered in-link can still displace the
			// entry later: fall through to the coverage gate with no
			// heuristic hold.
			due = now
		}
	} else {
		// Queues behind a pending predecessor for key order, with its own
		// hold budget.
		due = now.Add(p.holdFor(key, p.buf.At(pos-1).cell.Key()))
	}
	if pos == 0 && due <= now && p.buf.Len() == 0 {
		// In order and past the heuristic hold. With per-link lookahead on,
		// immediate delivery additionally requires frontier coverage: this
		// is the rollback tail the gap rule cannot see — cross-wave
		// divergences whose key gap exceeds DeferSlack get no heuristic hold
		// at all, yet an in-link whose frontier still trails this entry's
		// prediction may carry exactly such a straggler. Uncovered entries
		// park in the buffer with their due already passed; releasable holds
		// them until a frontier advance or the idle horizon releases them
		// (or their budget forces them).
		if !look.on() || !look.release(key, now).After(now) {
			return p.direct(), false
		}
	}
	return true, p.push(arr, pos, due)
}

// direct records an arrival that goes straight to the window.
func (p *pending) direct() bool {
	p.arrSeq++
	p.directSeq = p.arrSeq
	return false
}

// push inserts an arrival at position pos with its hold raised to its
// predecessor's due (capped at its own arrival+budget), then reports that
// the front is already due (or the buffer overfull) — the caller flushes —
// or re-arms the flush event.
func (p *pending) push(arr *history.Cell, pos int, due vtime.Time) (flush bool) {
	now := p.lane.Now()
	capAt := now.Add(p.budget)
	if pos > 0 {
		due = max(due, p.buf.At(pos-1).due)
	}
	if due > capAt {
		due = capAt
	}
	p.arrSeq++
	// The buffer outlives the delivery callback that handed us the
	// arrival, so it takes its own reference on the message (released on
	// flush or annihilation).
	arr.Msg.Retain()
	held := due > now
	p.insertPending(&pendingArrival{cell: *arr, capAt: capAt, due: due, seq: p.arrSeq, held: held}, pos)
	if held {
		p.stats.Deferred++
	}
	if p.buf.At(0).due <= now || p.buf.Len() > maxPending {
		return true
	}
	p.armFlush(p.buf.At(0).due)
	return false
}

// insertPending places c — its due already at or past its predecessor's
// and within its own budget — at position pos and restores the due
// invariants: dues non-decreasing in key order (an entry may never deliver
// after a larger-keyed successor) and no entry held past its capAt. The
// new entry's hold propagates stickily through its successors (each capped
// at its own budget), and where a cap clips the chain the backward pass
// lowers predecessors a capped successor can no longer wait out —
// delivering earlier is always safe.
//
// Both passes are bounded to what the insertion can have disturbed. Before
// it the dues were non-decreasing; the forward pass only raises, and stops
// at the first successor already at or past the running due, so everything
// from there on is untouched and still in order with the cell before it.
// Among the raised cells the running due only ever drops where a cap
// clips it, so the backward pass starts under the last clipped cell —
// usually there is none and it does not run — and walks down to the new
// entry. It never has to go below pos: each cell there was at or under the
// successor that followed it before the insertion, and every due at pos
// and above is still at least that.
func (p *pending) insertPending(c *pendingArrival, pos int) {
	if c.capAt < p.capLB {
		p.capLB = c.capAt
	}
	p.buf.Insert(pos, *c)
	run := c.due
	clipped := pos // last cell a cap clipped; pos = none
	for j := pos + 1; j < p.buf.Len(); j++ {
		q := p.buf.At(j)
		if q.due >= run {
			break
		}
		nd := run
		if nd > q.capAt {
			nd = q.capAt
			clipped = j
		}
		if nd > q.due {
			q.due = nd
		}
		run = q.due
	}
	for k := clipped - 1; k >= pos; k-- {
		if c, next := p.buf.At(k), p.buf.At(k+1); c.due > next.due {
			c.due = next.due
		}
	}
}

// spentThrough returns the index of the last pending arrival whose
// arrival+budget has elapsed at now, or -1. Budgets run to
// hundreds of milliseconds and holds to a few, so a spent budget is rare:
// the scan for one runs only once now reaches capLB, a lower bound on
// every buffered capAt. Insertions lower the bound and removals leave it
// alone, so it can only be stale on the low side — costing a scan, never
// hiding a spent budget — and each scan resets it to the smallest unspent
// budget (the caller flushes the spent ones).
func (p *pending) spentThrough(now vtime.Time) int {
	if now.Before(p.capLB) {
		return -1
	}
	last, lb := -1, vtime.Never
	for j := 0; j < p.buf.Len(); {
		s := p.buf.Span(j)
		for k := range s {
			if c := s[k].capAt; !c.After(now) {
				last = j + k
			} else if c < lb {
				lb = c
			}
		}
		j += len(s)
	}
	p.capLB = lb
	return last
}

// armFlush makes sure the single flush event fires no later than at,
// re-arming the live event in place (eventq.Reschedule) rather than
// scheduling a new one.
func (p *pending) armFlush(at vtime.Time) {
	if !p.flushH.IsZero() && p.lane.Rearm(p.flushH, min(at, p.flushAt)) {
		if at < p.flushAt {
			p.flushAt = at
		}
		return
	}
	p.flushH = p.lane.ScheduleCall(at, p.flushFn)
	p.flushAt = at
}

// releasable returns how many front entries a flush at now delivers — every
// entry up to the largest releasable key, in key order — and when the rest
// next needs a look, tallying the flush's counters.
//
// An entry is releasable when its heuristic due has passed and (with
// per-link lookahead on) its look.release has too — the scan stops at the
// first entry still awaiting frontier coverage, marks it lookahead-held,
// and wakes at its idle-horizon release, which an intervening frontier
// advance (onEntry's flush attempt) may beat. Two force rules override
// coverage, both bounding how long speculation can stall: an entry whose
// own arrival+budget has elapsed flushes regardless (and, dues being
// non-decreasing in key order and clipped to budgets, so does everything
// keyed before it), and a buffer past maxPending force-flushes at least its
// front so the buffer can never grow with load.
func (p *pending) releasable(now vtime.Time, look *lookahead) (n int, wake vtime.Time) {
	force := p.spentThrough(now)
	if force < 0 && p.buf.Len() > maxPending {
		force = 0
	}
	// A hit means something overtook the hold: either a direct window
	// insertion after the entry was deferred (directSeq advanced past its
	// seq) or a batch-mate with a smaller key deferred after it (maxSeen).
	// Both would have been a rollback without the hold. The flush itself
	// only counts toward DeferredFlushes when it delivers at least one
	// entry that actually waited.
	maxSeen, heldAny := uint64(0), false
scan:
	for n < p.buf.Len() {
		s := p.buf.Span(n)
		for k := range s {
			c := &s[k]
			if c.due.After(now) {
				wake = c.due
				break scan
			}
			if n > force && look.on() {
				if rel := look.release(c.cell.Key(), now); rel.After(now) {
					if !c.laHeld {
						c.laHeld = true
						p.stats.LookaheadHolds++
						if !c.held {
							c.held = true
							p.stats.Deferred++
						}
					}
					// The idle horizon caps the hold, the budget caps the
					// horizon; both are strictly future (a spent budget
					// would have put the entry in the force prefix).
					wake = min(rel, c.capAt)
					break scan
				}
			}
			heldAny = heldAny || c.held
			if c.laHeld && n > force {
				p.stats.LookaheadExactFlushes++
			}
			if p.directSeq > c.seq || maxSeen > c.seq {
				p.stats.DeferHits++
			}
			maxSeen = max(maxSeen, c.seq)
			n++
		}
	}
	if heldAny {
		p.stats.DeferredFlushes++
	}
	return n, wake
}

// drop removes the n front entries a flush delivered and re-arms the flush
// event for the rest at wake.
func (p *pending) drop(n int, wake vtime.Time) {
	p.buf.DropFront(n)
	if p.buf.Len() > 0 {
		p.armFlush(wake)
	}
}

// annihilate removes a pending arrival targeted by an anti-message before
// it was ever delivered — the cheapest possible unsend (Time Warp's
// input-queue annihilation): no rollback, no replay. It reports whether the
// target was found.
func (p *pending) annihilate(target msg.ID) bool {
	for i := range p.buf.Len() {
		m := p.buf.At(i).cell.Msg
		if m == nil || m.ID != target {
			continue
		}
		p.buf.Remove(i)
		p.stats.PendingAnnihilated++
		m.Release() // annihilated before delivery: the buffer held the last local reference
		return true
	}
	return false
}

// reset empties the buffer after a crash: the flush event dies with it and
// every held message reference is released.
func (p *pending) reset() {
	if !p.flushH.IsZero() {
		p.lane.Cancel(p.flushH)
		p.flushH = eventq.Handle{}
		p.flushAt = 0
	}
	p.held((*msg.Message).Release)
	p.buf.Truncate(0)
}

// held passes note every message the buffer references.
func (p *pending) held(note func(*msg.Message)) {
	for i := range p.buf.Len() {
		note(p.buf.At(i).cell.Msg)
	}
}

// ---- adaptive settle bound --------------------------------------------------

// settleHorizon is how many beacon intervals of arrival-lateness history
// the estimator remembers (2 s at the default 250 ms interval).
const settleHorizon = 8

// settleMarginMult scales the observed straggler margin into the bound:
// a straggler at most M late against its d_i prediction can displace
// entries up to roughly M old, and cascading repairs compound — 4× gives
// the same kind of headroom the paper's mean+4σ rule does (footnote 3).
const settleMarginMult = 4

// settleEstimator adapts the history retirement bound to the observed
// straggler margin: the maximum arrival lateness versus the d_i
// prediction over a trailing horizon. Quiet topologies shrink toward the
// floor — smaller live windows, shorter checkpoint stacks, earlier
// journal compaction — while churn (whose repair delays are what create
// very late stragglers) widens the bound before the settle cutoff can
// overtake them. SettleViolations staying zero is the correctness
// criterion; the floor alone must already cover one propagation sweep.
// It is the engine's only settle bound: a pinned EngineSpec.SettleBound is
// an estimator whose floor and ceiling are both the pin, so its bound reads
// the pin whatever it observes.
type settleEstimator struct {
	floor   vtime.Duration
	ceil    vtime.Duration
	buckets [settleHorizon]vtime.Duration
	epoch   uint64
	cached  vtime.Duration // max over buckets
}

func newSettleEstimator(floor, ceil vtime.Duration) *settleEstimator {
	return &settleEstimator{floor: floor, ceil: ceil}
}

// observe records one message arrival's lateness against its d_i
// prediction (early arrivals clamp to zero).
func (est *settleEstimator) observe(now vtime.Time, margin vtime.Duration) {
	if margin < 0 {
		margin = 0
	}
	epoch := vtime.GroupOf(now, vtime.BeaconInterval)
	if epoch != est.epoch {
		est.rotate(epoch)
	}
	i := epoch % settleHorizon
	if margin > est.buckets[i] {
		est.buckets[i] = margin
		if margin > est.cached {
			est.cached = margin
		}
	}
}

// rotate advances the ring to a new epoch, expiring buckets the horizon
// has slid past, and recomputes the cached max.
func (est *settleEstimator) rotate(epoch uint64) {
	steps := epoch - est.epoch
	if steps > settleHorizon {
		steps = settleHorizon
	}
	for s := uint64(1); s <= steps; s++ {
		est.buckets[(est.epoch+s)%settleHorizon] = 0
	}
	est.epoch = epoch
	var max vtime.Duration
	for _, b := range est.buckets {
		if b > max {
			max = b
		}
	}
	est.cached = max
}

// bound returns the current retirement bound.
func (est *settleEstimator) bound() vtime.Duration {
	b := est.floor + settleMarginMult*est.cached
	if b > est.ceil {
		b = est.ceil
	}
	return b
}

// ---- per-link lookahead (frontier coverage) ---------------------------------

// lookahead is a node's per-in-link frontier bank (EngineSpec.Lookahead):
// links[j] is the state of the link from the neighbor in slot j of the
// node's row of the adjacency table (topology.Graph.Slot). It gives the
// pending layer an exact release rule beside the heuristic DeferSlack gap
// rule, which is blind to cross-wave divergences whose key gap exceeds the
// slack. The zero value is off.
//
// The rule rests on the shape of a link's traffic. A node processes entries
// in (speculatively) increasing key order, a child's d_i is its cause's d_i
// plus a static per-link increment, and links are FIFO — so a sender's wire
// sequence is a concatenation of *ascending runs* of d_i predictions: each
// speculative stretch sends in ascending key order, and each sender-side
// rollback starts a new run (the replay's changed outputs re-enter the wire
// from the rollback point). Crucially, a run boundary announces itself: the
// anti-messages unsending the old run's cancelled outputs travel the same
// FIFO link ahead of the new run's sends.
//
// A link's promise is therefore the d_i prediction of its *latest* app
// arrival — its position in the current ascending run. Barring a run
// boundary, every future arrival on the link predicts at or past it, so an
// arrival whose prediction every in-link's promise has passed has no
// earlier-keyed message still in flight toward this node and is safe to
// deliver with no hold at all. An anti arrival resets the promise to zero:
// the link is about to deliver a new run starting somewhere below, and the
// run's own head re-establishes the promise the moment it lands.
//
// Releases are event-driven — the covering arrival's own delivery flushes
// the pending buffer — with one clock as backstop: a link quiet for its hop
// estimate plus twice the slack has nothing relevant in flight. That idle
// rule keeps a stale promise from holding arrivals behind links that simply
// have no traffic (between flood waves, after a failure, before a node ever
// transmits). The clock discipline is deliberate: virtual-time holds delay
// the application's own downstream sends, so clock-based releases feed the
// very arrival lag they try to absorb, while event-driven releases are
// self-limiting. On the link-flap workload the exact holds cut rollbacks per
// committed delivery from ~0.46 to under 0.1 (TestLookaheadRollbackRate);
// release says what a hold can and cannot move in the committed order.
//
// Guarantee: the bank is pure — every method takes now — and fed only from
// the node's own delivery stream, whose (at, seq) labels are identical in
// sequential and sharded runs, so its releases are mode-invariant and it is
// safe to feed inside a parallel window.
type lookahead struct {
	links []linkLook
	g     *topology.Graph
	self  int
	slack vtime.Duration // EngineSpec.DeferSlack
}

// linkLook is one in-link's state: where in the ordering-key domain the
// link's arrival stream is, and when it last moved.
type linkLook struct {
	promise vtime.Time     // d_i prediction of the latest app arrival
	seenAt  vtime.Time     // last activity on the link (app or anti)
	hop     vtime.Duration // static link delay + per-hop processing
}

// newLookahead builds node n's bank, one frontier per in-link. A link's hop
// is its static in-flight estimate — the link delay plus proc, the same
// per-hop processing the d_i annotation accumulates — and it sizes the idle
// rule.
func newLookahead(g *topology.Graph, n int, proc, slack vtime.Duration) lookahead {
	l := lookahead{links: make([]linkLook, g.Degree(n)), g: g, self: n, slack: slack}
	for j, li := range g.Incident(n) {
		l.links[j].hop = g.Links[li].Delay + proc
	}
	return l
}

// on reports whether the bank is in use (Lookahead with deferral).
func (l *lookahead) on() bool { return l.links != nil }

// observe feeds one arrival into its in-link's state: the promise moves to
// pred, an app message's own d_i prediction, or to zero for an anti — a run
// boundary, after which coverage stops trusting the old run. seenAt
// advances either way: an anti is link activity, and the sends it announces
// are at most a hop behind, so the idle rule keeps waiting for them.
// Senders that are not graph neighbors (impossible for app traffic, but
// cheap to guard) are ignored.
func (l *lookahead) observe(from msg.NodeID, now, pred vtime.Time) {
	if j := l.g.Slot(l.self, int(from)); j >= 0 {
		l.links[j].promise = pred
		l.links[j].seenAt = now
	}
}

// release returns the per-link release of an arrival keyed k: zero (or a
// time at or before now) when every in-link is past the arrival's d_i
// prediction — covered by promise, or idle, or never active — and otherwise
// the latest idle horizon among the links still behind it.
//
// The promise is speculative — a sender rollback starts a new run below it —
// so a release can be wrong in both directions: anti-announced run
// boundaries re-open coverage only after the anti lands, and an upstream
// whose replay is still in flight can slip under a promise that looked
// covering. Those residues cost speculation only. A hold does delay the
// node's own sends, and so moves which of them a link cut loses in flight;
// a loss is a recorded input (paper footnote 4), so the committed order
// stays a function of the recorded inputs and each run replays exactly
// (TestLookaheadMovesOnlyRecordedLosses).
func (l *lookahead) release(k ordering.Key, now vtime.Time) vtime.Time {
	if k.Class != ordering.ClassMessage {
		return 0 // timer batches and externals are local events: never held
	}
	pk := vtime.GroupStart(k.Group, vtime.BeaconInterval).Add(k.Delay)
	var rel vtime.Time
	for j := range l.links {
		ll := &l.links[j]
		if ll.promise >= pk || ll.seenAt == 0 {
			continue // covered, or never active: nothing relevant in flight
		}
		if idleAt := ll.seenAt.Add(ll.hop + 2*l.slack); idleAt.After(now) && idleAt > rel {
			rel = idleAt
		}
	}
	return rel
}

// reset forgets every promise: after a crash they describe a dead world.
func (l *lookahead) reset() {
	for i := range l.links {
		l.links[i] = linkLook{hop: l.links[i].hop}
	}
}
