package rollback

// Rollback avoidance: deterministic arrival deferral and the adaptive
// settle-bound estimator. Both knobs change only *speculation dynamics* —
// how often the engine guesses wrong and repairs — never the committed
// order, which by Theorem 1 depends only on the ordering function and the
// external events.

import (
	"slices"

	"defined/internal/eventq"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/vtime"
)

// Deferral defaults (Config.DeferSlack / Config.DeferMax select them when
// zero). Slack is sized to absorb the lateness *differentials* that
// actually cause rollbacks — accumulated jitter plus differential
// rollback-repair charges between racing flood paths — which run to a few
// milliseconds, while staying at or below one typical link delay
// (5–40 ms on the evaluation topologies) so a hold never costs more
// convergence latency than one extra hop. On the Sprintlink link-flap
// workload 8 ms removes ~90 % of rollbacks for ~10 ms of added
// quiescence latency; beyond it the returns diminish and the latency
// cost keeps growing. The per-arrival budget (DeferMax) mostly matters
// for chained holds — an arrival queued behind held predecessors waits
// for them — and 100 ms is where the rollback reduction saturates on the
// same workload (a tighter 25 ms budget forfeits half of it by cutting
// storm-time chains short).
const (
	defaultDeferSlack = 8 * vtime.Millisecond
	defaultDeferMax   = 100 * vtime.Millisecond
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

// pendingArrival is one deferred entry in the shim's pending buffer. due
// is the flush time: the entry's own gap-complement hold, raised to what
// its key predecessors were holding for when it arrived (queuing behind a
// held predecessor extends the wait — deliberately sticky, since a long
// chained hold is exactly quantum buffering through a churn storm), but
// never past capAt, the entry's own arrival+DeferMax budget. seq is the
// shim's arrival sequence at deferral time: any smaller-keyed arrival
// processed with a larger sequence overtook this entry during its hold,
// meaning the deferral avoided a rollback (Stats.DeferHits). held records
// whether the entry ever actually waited (a zero-length hold that only
// queued for key order is not a deferral in the Stats sense).
// laHeld marks an entry the flush loop has held past its heuristic due for
// per-link frontier coverage (the lookahead hold, counted once per entry in
// Stats.LookaheadHolds); when such an entry eventually flushes covered —
// rather than forced out by its DeferMax budget or buffer overflow — it
// counts toward Stats.LookaheadExactFlushes.
// rank is the entry key's ordering.Rank, cached (and placed first) so
// maybeDefer's position scan compares two integers per cell instead of
// calling the ordering function on 48-byte keys. A cell is 128 bytes — an
// insertion moves a dozen of them — so nothing goes in that is not read.
type pendingArrival struct {
	rank   ordering.Rank
	entry  history.Entry
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
func (sh *shim) holdFor(k, prev ordering.Key) vtime.Duration {
	if k.Class != ordering.ClassMessage {
		return 0
	}
	var prevDelay vtime.Duration
	if prev.Group == k.Group && prev.Class == ordering.ClassMessage {
		prevDelay = prev.Delay
	}
	gap := k.Delay - prevDelay
	if gap >= sh.e.cfg.DeferSlack {
		return 0
	}
	hold := sh.e.cfg.DeferSlack - gap
	if hold > sh.e.cfg.DeferMax {
		hold = sh.e.cfg.DeferMax
	}
	return hold
}

// maybeDefer decides whether an arrival enters the pending buffer instead
// of the history window. It reports true when the entry was consumed
// (deferred or dropped as a pending duplicate).
//
// Invariant: every live window entry sorts strictly before every pending
// entry, and pending dues are non-decreasing in key order. Arrivals
// sorting after a pending entry therefore must queue behind it —
// delivering them first would guarantee a rollback when the pending
// entries flush.
func (sh *shim) maybeDefer(entry *history.Entry, rank ordering.Rank) bool {
	cmp := sh.e.cfg.Ordering
	now := sh.lane.Now()
	// Insertion position in the (small, key-ordered) pending buffer. The
	// ranks decide nearly every cell; ordering.CompareRanked spelled out,
	// so the keys are only copied into a call when two ranks tie.
	pos := len(sh.pend)
	for pos > 0 {
		p := &sh.pend[pos-1]
		if p.rank.Less(rank) {
			break
		}
		if !rank.Less(p.rank) {
			c := cmp.Compare(p.entry.Key, entry.Key)
			if c < 0 {
				break
			}
			if c == 0 {
				sh.stats.Duplicates++
				return true
			}
		}
		pos--
	}
	var due vtime.Time
	if pos == 0 {
		// Fronts the pending buffer: its predecessor is the window tail.
		if n := sh.win.Len(); n > 0 {
			tail := sh.win.At(n - 1).Key
			if cmp.Compare(entry.Key, tail) <= 0 {
				return false // diverging (or dup): take the rollback now
			}
			due = now.Add(sh.holdFor(entry.Key, tail))
		} else {
			if !sh.e.lookOn {
				return false // nothing to misorder against yet
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
		due = now.Add(sh.holdFor(entry.Key, sh.pend[pos-1].entry.Key))
	}
	if pos == 0 && due <= now && len(sh.pend) == 0 {
		// In order and past the heuristic hold. With per-link lookahead on,
		// immediate delivery additionally requires frontier coverage (see
		// lookRelease): this is the rollback tail the gap rule cannot see —
		// cross-wave divergences whose key gap exceeds DeferSlack get no
		// heuristic hold at all, yet an in-link whose frontier still trails
		// this entry's prediction may carry exactly such a straggler.
		// Uncovered entries park in the buffer with their due already
		// passed; flushPending holds them until a frontier advance or the
		// idle horizon releases them (or their budget forces them).
		if !sh.e.lookOn || !sh.lookRelease(entry.Key, now).After(now) {
			return false
		}
	}
	sh.pushPending(entry, rank, pos, due)
	return true
}

// pushPending inserts an arrival at position pos of the key-ordered
// pending buffer with its hold raised to its predecessor's due (capped at
// its own arrival+DeferMax budget), then flushes (front already due) or
// re-arms the flush event.
func (sh *shim) pushPending(entry *history.Entry, rank ordering.Rank, pos int, due vtime.Time) {
	now := sh.lane.Now()
	budget := sh.e.cfg.DeferMax
	if sh.e.lookOn {
		budget *= lookBudgetMult
	}
	capAt := now.Add(budget)
	if pos > 0 && sh.pend[pos-1].due > due {
		due = sh.pend[pos-1].due
	}
	if due > capAt {
		due = capAt
	}
	sh.arrSeq++
	// The buffer outlives the delivery callback that handed us the entry,
	// so it takes its own reference on the message (released on flush or
	// annihilation).
	entry.Msg.Retain()
	held := due > now
	sh.insertPending(&pendingArrival{rank: rank, entry: *entry, capAt: capAt, due: due, seq: sh.arrSeq, held: held}, pos)
	if held {
		sh.stats.Deferred++
	}
	if sh.pend[0].due <= now || len(sh.pend) > maxPending {
		sh.flushPending()
		return
	}
	sh.armFlush(sh.pend[0].due)
}

// insertPending places p — its due already at or past its predecessor's
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
func (sh *shim) insertPending(p *pendingArrival, pos int) {
	if p.capAt < sh.pendCapLB {
		sh.pendCapLB = p.capAt
	}
	if pos == len(sh.pend) {
		sh.pend = append(sh.pend, *p)
		return // no successor to raise, nothing clipped
	}
	sh.pend = append(sh.pend, pendingArrival{})
	copy(sh.pend[pos+1:], sh.pend[pos:])
	sh.pend[pos] = *p
	run := p.due
	clipped := pos // last cell a cap clipped; pos = none
	for j := pos + 1; j < len(sh.pend); j++ {
		q := &sh.pend[j]
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
		if sh.pend[k].due > sh.pend[k+1].due {
			sh.pend[k].due = sh.pend[k+1].due
		}
	}
}

// spentThrough returns the index of the last pending arrival whose
// arrival+DeferMax budget has elapsed at now, or -1. Budgets run to
// hundreds of milliseconds and holds to a few, so a spent budget is rare:
// the scan for one runs only once now reaches pendCapLB, a lower bound on
// every buffered capAt. Insertions lower the bound and removals leave it
// alone, so it can only be stale on the low side — costing a scan, never
// hiding a spent budget — and each scan resets it to the smallest unspent
// budget (the caller flushes the spent ones).
func (sh *shim) spentThrough(now vtime.Time) int {
	if now.Before(sh.pendCapLB) {
		return -1
	}
	last, lb := -1, vtime.Never
	for j := range sh.pend {
		if c := sh.pend[j].capAt; !c.After(now) {
			last = j
		} else if c < lb {
			lb = c
		}
	}
	sh.pendCapLB = lb
	return last
}

// armFlush makes sure the shim's single flush event fires no later than
// at, re-arming the live event in place (eventq.Reschedule) rather than
// scheduling a new one.
func (sh *shim) armFlush(at vtime.Time) {
	if !sh.flushH.IsZero() && sh.lane.Rearm(sh.flushH, min(at, sh.flushAt)) {
		if at < sh.flushAt {
			sh.flushAt = at
		}
		return
	}
	sh.flushH = sh.lane.ScheduleFn(at, sh.flushFn)
	sh.flushAt = at
}

// onFlush is the scheduled flush callback (bound once per shim).
func (sh *shim) onFlush() {
	sh.flushH = eventq.Handle{}
	if sh.crashed {
		return // quarantine emptied the buffer; a stale flush is a no-op
	}
	sh.flushPending()
}

// flushPending delivers every pending arrival up to (and including) the
// largest releasable key, in ordering-key order — batched insertion in key
// order cannot roll anything back, which is the whole point: the hold
// converted a deliver-then-undo sequence into a single ordered delivery.
//
// An entry is releasable when its heuristic due has passed and (with
// per-link lookahead on) its lookRelease has too — the flush stops at the
// first entry still awaiting frontier coverage, marks it lookahead-held,
// and re-arms at its idle-horizon release, which an intervening frontier
// advance (onEntry's flush attempt) may beat. Two force rules override
// coverage, both bounding how long speculation can stall: an entry whose
// own arrival+DeferMax budget has elapsed flushes regardless (and, dues
// being non-decreasing in key order and clipped to budgets, so does
// everything keyed before it), and a buffer past maxPending force-flushes
// at least its front so the buffer can never grow with load.
func (sh *shim) flushPending() {
	now := sh.lane.Now()
	force := sh.spentThrough(now)
	if force < 0 && len(sh.pend) > maxPending {
		force = 0
	}
	last := -1
	var wake vtime.Time
	for last+1 < len(sh.pend) {
		p := &sh.pend[last+1]
		if p.due.After(now) {
			wake = p.due
			break
		}
		if last+1 > force && sh.e.lookOn {
			if rel := sh.lookRelease(p.entry.Key, now); rel.After(now) {
				if !p.laHeld {
					p.laHeld = true
					sh.stats.LookaheadHolds++
					if !p.held {
						p.held = true
						sh.stats.Deferred++
					}
				}
				// The idle horizon caps the hold, the budget caps the
				// horizon; both are strictly future (a spent budget would
				// have put the entry in the force prefix).
				if rel > p.capAt {
					rel = p.capAt
				}
				wake = rel
				break
			}
		}
		last++
	}
	if last >= 0 {
		// A hit means something overtook the hold: either a direct window
		// insertion after the entry was deferred (sh.directSeq advanced past
		// its seq) or a batch-mate with a smaller key deferred after it
		// (maxSeen). Both would have been a rollback without the hold. The
		// flush itself only counts toward DeferredFlushes when it delivers at
		// least one entry that actually waited.
		maxSeen := uint64(0)
		heldAny := false
		for i := 0; i <= last; i++ {
			p := &sh.pend[i]
			heldAny = heldAny || p.held
			if p.laHeld && i > force {
				sh.stats.LookaheadExactFlushes++
			}
			if sh.directSeq > p.seq || maxSeen > p.seq {
				sh.stats.DeferHits++
			}
			if p.seq > maxSeen {
				maxSeen = p.seq
			}
			// The entry enters the window when it flushes; retirement clocks
			// start here, so a hold can never age an entry toward a
			// settle violation. The window takes its own reference on insert,
			// so the buffer's reference can drop right after.
			p.entry.ArrivedAt = now
			sh.insertNow(&p.entry, p.rank)
			p.entry.Msg.Release()
		}
		if heldAny {
			sh.stats.DeferredFlushes++
		}
		n := copy(sh.pend, sh.pend[last+1:])
		clearPending(sh.pend[n:])
		sh.pend = sh.pend[:n]
	}
	if len(sh.pend) > 0 {
		sh.armFlush(wake)
	}
}

// clearPending zeroes recycled buffer cells so retired entries (and their
// messages) do not linger reachable.
func clearPending(ps []pendingArrival) {
	for i := range ps {
		ps[i] = pendingArrival{}
	}
}

// annihilatePending removes a pending arrival targeted by an anti-message
// before it was ever delivered — the cheapest possible unsend (Time
// Warp's input-queue annihilation): no rollback, no replay. It reports
// whether the target was found.
func (sh *shim) annihilatePending(target msg.ID) bool {
	for i := range sh.pend {
		m := sh.pend[i].entry.Msg
		if m == nil || m.ID != target {
			continue
		}
		n := copy(sh.pend[i:], sh.pend[i+1:])
		clearPending(sh.pend[i+n:])
		sh.pend = sh.pend[:i+n]
		sh.stats.PendingAnnihilated++
		m.Release() // annihilated before delivery: the buffer held the last local reference
		return true
	}
	return false
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
type settleEstimator struct {
	iv      vtime.Duration
	floor   vtime.Duration
	ceil    vtime.Duration
	buckets [settleHorizon]vtime.Duration
	epoch   uint64
	cached  vtime.Duration // max over buckets
}

func newSettleEstimator(iv, floor, ceil vtime.Duration) *settleEstimator {
	return &settleEstimator{iv: iv, floor: floor, ceil: ceil}
}

// observe records one message arrival's lateness against its d_i
// prediction (early arrivals clamp to zero).
func (est *settleEstimator) observe(now vtime.Time, margin vtime.Duration) {
	if margin < 0 {
		margin = 0
	}
	epoch := vtime.GroupOf(now, est.iv)
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

// linkLook is one in-link's lookahead state: where in the ordering-key
// domain the link's arrival stream currently is, and when it last moved.
//
// The mechanism rests on the shape of a link's traffic. A node processes
// entries in (speculatively) increasing key order, a child's d_i is its
// cause's d_i plus a static per-link increment, and links are FIFO — so a
// sender's wire sequence is a concatenation of *ascending runs* of d_i
// predictions: each speculative stretch sends in ascending key order, and
// each sender-side rollback starts a new run (the replay's changed outputs
// re-enter the wire from the rollback point). Crucially, a run boundary
// announces itself: the anti-messages unsending the old run's cancelled
// outputs travel the same FIFO link ahead of the new run's sends.
//
// promise is therefore the d_i prediction of the link's *latest* app
// arrival — the link's position in its current ascending run. Barring a
// run boundary, every future arrival on the link predicts at or past it,
// so an arrival whose prediction every in-link's promise has passed has no
// earlier-keyed message still in flight toward this node and is safe to
// deliver with no hold at all. An anti arrival resets the promise to zero:
// the link is about to deliver a new run starting somewhere below, and the
// run's own head re-establishes the promise the moment it lands.
//
// seenAt is the link's last activity (app or anti arrival); hop is the
// static in-flight estimate (link delay + per-hop processing). A link
// quiet for hop plus the deferral slack has nothing relevant in flight —
// this idle rule is what keeps a stale promise from holding arrivals
// behind links that simply have no traffic (between flood waves, after a
// failure, or before a node ever transmits), and it is the only clock in
// the mechanism: every other release is event-driven, which is what makes
// the holds self-limiting instead of feeding back into the arrival lag
// they are trying to absorb.
//
// The state is shim-local and fed only from the shim's own delivery
// stream, whose (at, seq) labels are identical in sequential and sharded
// runs — so it is deterministic and mode-invariant by construction, and
// safe to read and update inside a parallel window.
type linkLook struct {
	promise vtime.Time     // d_i prediction of the latest app arrival
	seenAt  vtime.Time     // last activity on the link (app or anti)
	hop     vtime.Duration // static link delay + per-hop processing
}

// observeLink feeds one delivered message into its in-link's lookahead
// state: the promise moves to the message's own d_i prediction (its
// position in the link's current ascending run). Senders that are not
// graph neighbors (impossible for app traffic, but cheap to guard) are
// ignored.
func (sh *shim) observeLink(from msg.NodeID, now, pred vtime.Time) {
	j, ok := slices.BinarySearch(sh.lookNbr, from)
	if !ok {
		return
	}
	sh.look[j].promise = pred
	sh.look[j].seenAt = now
}

// observeAnti marks a run boundary on an in-link: the sender rolled back,
// and (FIFO) its replacement sends follow this anti. The promise resets so
// coverage stops trusting the old run; the new run's head re-establishes
// it. seenAt still advances — an anti is link activity, and the sends it
// announces are at most a hop behind, so the idle rule keeps waiting for
// them.
func (sh *shim) observeAnti(from msg.NodeID, now vtime.Time) {
	j, ok := slices.BinarySearch(sh.lookNbr, from)
	if !ok {
		return
	}
	sh.look[j].promise = 0
	sh.look[j].seenAt = now
}

// lookRelease returns the per-link release of an arrival: zero (or a time
// at or before now) when every in-link is past the arrival's d_i
// prediction — covered by promise, or idle, or never active — and
// otherwise the latest idle horizon among the links still behind it. A
// future release means some in-link may still carry an earlier-keyed
// message toward this node; the hold it induces ends early the moment a
// covering arrival lands (the event-driven flush attempt in onEntry), and
// at the returned time the lagging links have all gone conclusively quiet.
//
// The promise is speculative — a sender rollback starts a new run below it
// — so a release can be wrong in both directions: anti-announced run
// boundaries re-open coverage only after the anti lands, and an upstream
// whose replay is still in flight can slip under a promise that looked
// covering. Those residues cost speculation only: by Theorem 1 no release
// decision, right or wrong, can move the committed order.
func (sh *shim) lookRelease(k ordering.Key, now vtime.Time) vtime.Time {
	if k.Class != ordering.ClassMessage {
		return 0 // timer batches and externals are local events: never held
	}
	pk := vtime.GroupStart(k.Group, sh.e.cfg.BeaconInterval).Add(k.Delay)
	slack := sh.e.cfg.DeferSlack
	var rel vtime.Time
	for j := range sh.look {
		ll := &sh.look[j]
		if ll.promise >= pk || ll.seenAt == 0 {
			continue // covered, or never active: nothing relevant in flight
		}
		if idleAt := ll.seenAt.Add(ll.hop + 2*slack); idleAt.After(now) && idleAt > rel {
			rel = idleAt
		}
	}
	return rel
}
