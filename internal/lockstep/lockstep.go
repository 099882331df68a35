// Package lockstep implements DEFINED-LS, the debugging-network engine
// (paper §2.3). A debugging network replays the partial recording of a
// production run in lockstep: execution is divided into the beacon groups
// the production network used, and within a group the nodes alternate
// between a transmission phase (drain send buffers over reliable channels,
// signal completion with a marker) and a processing phase (sort the
// receive buffer with the *same* ordering function the production network
// used and deliver). A distributed-semaphore-style coordinator keeps all
// nodes in the same phase.
//
// Delivery order must equal the production network's committed order at
// every node (the paper's Theorem 1). The replay achieves this with a
// conservative schedule: queued messages are delivered in ordering-function
// order, but a processing phase only admits entries that no future message
// can sort before. Under the delay-sensitive ordering (OO) the safe batch
// is every entry with d_i below min(d_i)+minLinkDelay, because a child's
// d_i always exceeds its parent's by at least one link delay; under the
// random ordering (RO) whole causal chains replay sequentially in hash
// order, with the same d_i rule inside each chain.
//
// A replay is a function of (graph, applications, recording) and nothing
// else: the recording names the ordering function and its seed, the chain
// bound and the per-hop processing estimate, and the nodes boot with the
// neighbor lists and beacon skews the production engine computes
// (annotate.Neighbors, annotate.Skews). Every delivery goes through
// annotate's Sender.Deliver, the one rule that picks the handler and names
// the outputs' cause in both engines, so the replay regenerates the
// annotations production committed. Each node keeps its delivery
// sequence as ordering keys (DeliveredKeys), the same keys the production
// network commits, so the two compare directly. Wire messages always come
// from the engine's refcounted pool; MsgPool exposes it, poison mode
// included.
//
// New is the only code that reads the recording, and it reads it once: it
// checks the envelope (the beacon interval must be vtime.BeaconInterval,
// the chain bound at least 1, every event at a node of the graph), moves
// loss events into a drop table and application events into one slice
// sorted by (group, node, seq), and keeps no reference to it, so one
// recording can feed any number of concurrent replays. A message that a
// chain-bound rollover tags for a later group waits in the one transmit
// queue: the ordering function sorts by group first, so it sorts behind
// every message of the current group, and a batch never crosses a group.
//
// StepRound, StepGroup and RunToEnd are one counting step loop run to
// different extents; each returns the deliveries it made, which is what the
// debugger's session count adds up.
//
// The replay length is the recording's word: nothing bounds Groups, so a
// hostile file naming 2^40 groups replays until memory runs out instead of
// failing. A caller that takes recordings from outside bounds Groups itself.
//
// Response-time accounting models what the paper measures in Figures 6c
// and 8c: a step is one transmission + one processing phase, and its
// response time combines the semaphore barrier (two coordinator round
// trips plus per-node handling) with the slowest link in the round and the
// slowest node's processing.
package lockstep

import (
	"cmp"
	"fmt"
	"slices"

	"defined/internal/annotate"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// semaphoreCost is the modeled coordinator handling cost per node per
// phase transition in response-time accounting.
const semaphoreCost = 2 * vtime.Millisecond

// Delivery describes one event delivered to one node — the unit of the
// debugger's finest stepping granularity.
type Delivery struct {
	Node msg.NodeID
	Key  ordering.Key
	Msg  *msg.Message      // nil for timer batches and externals
	Ext  api.ExternalEvent // set for externals
	// ExtOffset is the recorded in-group offset of an external event,
	// anchoring the d_i of the chains it starts.
	ExtOffset vtime.Duration
}

// String renders the delivery for the interactive debugger.
func (d Delivery) String() string {
	switch {
	case d.Key.IsTimer():
		return fmt.Sprintf("node %d ← timer batch g%d", d.Node, d.Key.Group)
	case d.Key.IsExternal():
		return fmt.Sprintf("node %d ← external %s %v", d.Node, d.Ext.ExternalKind(), d.Key)
	default:
		return fmt.Sprintf("node %d ← %v", d.Node, d.Msg)
	}
}

// StepInfo summarizes one completed lockstep round.
type StepInfo struct {
	Group      uint64
	Round      int // 0 = timers+externals, k>0 = message batches
	Deliveries int
	// ControlMessages counts semaphore + marker packets the round cost.
	ControlMessages int
	// ResponseTime is the modeled wall time of the round (Fig 6c).
	ResponseTime vtime.Duration
}

// node is one debugging-network node.
type node struct {
	id      msg.NodeID
	app     api.Application
	sender  *annotate.Sender
	sendBuf []*msg.Message

	// delivered is the node's delivery sequence, a segment log: it grows
	// on every delivery of the replay and growth never copies a key.
	delivered segLog[ordering.Key]
}

// Engine replays a recording in lockstep.
type Engine struct {
	G *topology.Graph
	f ordering.Func

	nodes    []*node
	curGroup uint64
	round    int
	pending  []Delivery // deliveries of the current processing phase
	pendBuf  []Delivery // pending's array from its start: steps eat pending's front, phases refill here
	done     bool

	// queue holds transmitted-but-undelivered messages, kept sorted by
	// the ordering function; a chain-bound rollover waits here for its
	// group. Ordering keys are computed once at transmission and cached
	// alongside each message so the per-round sort never recomputes them.
	queue []queued

	// ext holds the recording's application events as round-0
	// deliveries, sorted by (group, node, seq) with ties in recording
	// order; extNext is the first one no group has begun yet.
	ext     []Delivery
	extNext int
	// lastGroup is the last group the recording names: its production
	// group count or its latest event, whichever is later.
	lastGroup uint64

	// minLink is the conservative-replay lookahead: the smallest link
	// delay in the graph.
	minLink vtime.Duration
	// chains is non-nil for chain-ordered (RO) replays: chains are
	// scheduled sequentially by hash.
	chains ordering.ChainOrdered

	// Per-round accounting for StepInfo.
	roundDeliv   int
	roundPerNode []int

	drops   map[dropKey]int
	maxSkew vtime.Duration // longest coordinator path (recordStep)
	maxLink vtime.Duration // slowest link (recordStep)
	// steps holds one summary per completed round, a segment log like
	// node.delivered: growth never copies, and Steps builds the slice.
	steps segLog[StepInfo]

	// breakHit points at hit, the paused delivery, while a breakpoint
	// holds stepping; a field, so StepEvent's delivery never escapes.
	breakFn  func(Delivery) bool
	breakHit *Delivery
	hit      Delivery

	// pool backs every node sender's wire messages; lastMsg is the most
	// recently delivered message, whose reference is released when the
	// next delivery starts (so the Delivery StepEvent returned stays
	// readable until the next step) or when the replay completes.
	pool    msg.Pool
	lastMsg *msg.Message
}

type dropKey struct {
	key ordering.Key
	to  msg.NodeID
}

// queued is one transmitted-but-undelivered message with its cached
// ordering key.
type queued struct {
	m   *msg.Message
	key ordering.Key
}

// New builds a debugging network over graph g with one application per
// node, replaying rec. Applications must be fresh instances of the same
// software the production network ran. The recording is the replay's only
// configuration: its ordering name and seed select the ordering function,
// so exploring another ordering means replaying an edited copy. A
// recording the package doc's checks reject is an error naming the field.
func New(g *topology.Graph, apps []api.Application, rec *record.Recording) (*Engine, error) {
	if len(apps) != g.N {
		return nil, fmt.Errorf("lockstep: %d apps for %d nodes", len(apps), g.N)
	}
	if rec.BeaconInterval != vtime.BeaconInterval {
		return nil, fmt.Errorf("lockstep: recording beacon_interval %v, want %v", rec.BeaconInterval, vtime.BeaconInterval)
	}
	if rec.ChainBound < 1 {
		return nil, fmt.Errorf("lockstep: recording chain_bound %d must be >= 1", rec.ChainBound)
	}
	f, err := ordering.ByName(rec.Ordering, rec.Seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		G: g, f: f,
		lastGroup:    rec.Groups,
		drops:        map[dropKey]int{},
		roundPerNode: make([]int, g.N),
	}
	if co, ok := f.(ordering.ChainOrdered); ok {
		e.chains = co
	}
	for i, l := range g.Links {
		if i == 0 || l.Delay < e.minLink {
			e.minLink = l.Delay
		}
		if l.Delay > e.maxLink {
			e.maxLink = l.Delay
		}
	}
	// Loss events go to the drop table (replay metadata, not
	// application events); the rest become round-0 deliveries.
	for _, ev := range rec.Events {
		if ev.Node < 0 || int(ev.Node) >= g.N {
			return nil, fmt.Errorf("lockstep: recording event at node %d of %d", ev.Node, g.N)
		}
		e.lastGroup = max(e.lastGroup, ev.Group)
		if le, ok := ev.Payload.(record.LossEvent); ok {
			e.drops[dropKey{key: le.Key, to: le.To}]++
			continue
		}
		e.ext = append(e.ext, Delivery{
			Node:      ev.Node,
			Key:       ordering.ExternalKey(ev.Group, ev.Node, ev.Seq),
			Ext:       ev.Payload,
			ExtOffset: ev.Offset,
		})
	}
	slices.SortStableFunc(e.ext, func(a, b Delivery) int {
		return cmp.Or(cmp.Compare(a.Key.Group, b.Key.Group),
			cmp.Compare(a.Node, b.Node), cmp.Compare(a.Key.Seq, b.Key.Seq))
	})
	// Barrier latency model: the coordinator is the beacon leader
	// (node 0); the barrier costs two traversals of the longest
	// coordinator path per phase change. The same distances are the
	// beacon skews anchoring timer-started chains.
	skew := annotate.Skews(g)
	e.maxSkew = slices.Max(skew)
	e.nodes = make([]*node, g.N)
	for i := 0; i < g.N; i++ {
		n := msg.NodeID(i)
		sender := annotate.NewSender(n, g, rec.ChainBound, rec.ProcEstimate, skew[i])
		sender.Pool = &e.pool
		e.nodes[i] = &node{id: n, app: apps[i], sender: sender}
		apps[i].Init(n, annotate.Neighbors(g, n))
	}
	e.beginGroup(0)
	return e, nil
}

// Done reports whether the replay is complete.
func (e *Engine) Done() bool { return e.done }

// MsgPool exposes the engine's wire-message pool (lifecycle tests read its
// violation and live counters, and turn on poison mode right after New).
func (e *Engine) MsgPool() *msg.Pool { return &e.pool }

// CurrentGroup returns the group being replayed.
func (e *Engine) CurrentGroup() uint64 { return e.curGroup }

// CurrentRound returns the round within the group (0 = timers+externals).
func (e *Engine) CurrentRound() int { return e.round }

// App exposes node n's application for state inspection.
func (e *Engine) App(n msg.NodeID) api.Application { return e.nodes[n].app }

// DeliveredKeys returns node n's delivery sequence so far.
func (e *Engine) DeliveredKeys(n msg.NodeID) []ordering.Key {
	return e.nodes[n].delivered.all()
}

// Steps returns a fresh slice of the per-round summaries accumulated so
// far.
func (e *Engine) Steps() []StepInfo { return e.steps.all() }

// SetBreakpoint installs a predicate evaluated before every delivery;
// stepping stops when it fires. Pass nil to clear.
func (e *Engine) SetBreakpoint(fn func(Delivery) bool) { e.breakFn = fn }

// BreakpointHit returns the delivery that triggered the last pause, if any.
// The pointer is valid until the next step: the step that resumes delivers
// it and clears the pause.
func (e *Engine) BreakpointHit() *Delivery { return e.breakHit }

// Pending returns a copy of the deliveries queued for the current
// processing phase (the debugger's "what happens next" view).
func (e *Engine) Pending() []Delivery { return append([]Delivery(nil), e.pending...) }

// ---- phase machinery ---------------------------------------------------------

// beginGroup queues the timer batches and recorded externals of group g as
// the group's round-0 deliveries. Groups begin in ascending order, so the
// externals of g are the ones at the cursor.
func (e *Engine) beginGroup(g uint64) {
	e.curGroup = g
	e.round = 0
	e.pending = e.pendBuf[:0]
	e.resetRound()
	// Timer batches in ascending node order — identical to the ordering
	// function's timer-entry order. The production engine turns timer
	// wheels from group 1 onward (the group-0 boundary is the start of
	// time); replay matches.
	if g >= 1 {
		for _, n := range e.nodes {
			e.pending = append(e.pending, Delivery{Node: n.id, Key: ordering.TimerKey(g, n.id)})
		}
	}
	// Recorded externals in (node, seq) order.
	for ; e.extNext < len(e.ext) && e.ext[e.extNext].Key.Group == g; e.extNext++ {
		e.pending = append(e.pending, e.ext[e.extNext])
	}
	e.pendBuf = e.pending
}

// resetRound clears the per-round accounting.
func (e *Engine) resetRound() {
	e.roundDeliv = 0
	for i := range e.roundPerNode {
		e.roundPerNode[i] = 0
	}
}

// StepEvent delivers exactly one pending event. It returns the delivery
// and false when the replay has finished. Breakpoints pause *before* the
// matching delivery: the first call after a pause delivers it.
func (e *Engine) StepEvent() (Delivery, bool) {
	for len(e.pending) == 0 {
		if !e.advancePhase() {
			return Delivery{}, false
		}
	}
	d := e.pending[0]
	if e.breakFn != nil && e.breakHit == nil && e.breakFn(d) {
		e.hit = d
		e.breakHit = &e.hit
		return d, true
	}
	e.breakHit = nil
	e.pending = e.pending[1:]
	e.deliver(d)
	return d, true
}

// releaseDelivered drops the engine's reference on the previously
// delivered message. Deferred one step so the Delivery returned by
// StepEvent stays readable (for breakpoint reports, debugger rendering)
// until the next delivery begins.
func (e *Engine) releaseDelivered() {
	if e.lastMsg != nil {
		e.lastMsg.Release()
		e.lastMsg = nil
	}
}

// deliver hands one event to the target application and buffers outputs.
// A message delivery's key joins the node's delivery sequence and the
// message is queued for release: the engine's reference (inherited from the
// transmit queue) dies when the next delivery starts.
func (e *Engine) deliver(d Delivery) {
	e.releaseDelivered()
	d.Msg.CheckLive("lockstep.deliver")
	n := e.nodes[d.Node]
	n.delivered.add(d.Key)
	e.roundDeliv++
	e.roundPerNode[d.Node]++
	outs, c := n.sender.Deliver(n.app, d.Key, d.Msg, d.Ext, d.ExtOffset)
	e.lastMsg = d.Msg
	for _, out := range outs {
		n.sendBuf = append(n.sendBuf, n.sender.Build(out, &c))
	}
}

// advancePhase moves the engine forward when the pending list drains:
// transmission of buffered sends, then the next safe processing batch;
// when the group is exhausted, the next group; when all groups are done,
// finish. It returns false when the replay is complete.
func (e *Engine) advancePhase() bool {
	if e.done {
		return false
	}
	e.recordStep()
	e.transmit()
	if len(e.queue) > 0 {
		e.round++
		e.buildProcessing()
		if len(e.pending) > 0 {
			return true
		}
	}
	// Group quiescent: the next group, while the recording names one or
	// a rollover waits in the queue for one. Every group from 1 on
	// begins with timer batches.
	for e.curGroup < e.lastGroup || len(e.queue) > 0 {
		e.beginGroup(e.curGroup + 1)
		if len(e.pending) > 0 {
			return true
		}
	}
	e.done = true
	e.releaseDelivered()
	return false
}

// transmit moves every node's send buffer into the shared queue (the
// transmission phase), replaying recorded losses.
func (e *Engine) transmit() {
	for _, n := range e.nodes {
		for _, m := range n.sendBuf {
			k := ordering.KeyOf(m)
			if cnt := e.drops[dropKey{key: k, to: m.To}]; cnt > 0 {
				// The production network lost this message; replay
				// the loss (paper footnote 4) and release the sender's
				// reference — the message never reaches a queue.
				e.drops[dropKey{key: k, to: m.To}] = cnt - 1
				m.Release()
				continue
			}
			e.queue = append(e.queue, queued{m: m, key: k})
		}
		n.sendBuf = n.sendBuf[:0]
	}
}

// buildProcessing selects the next conservative batch from the non-empty
// queue and queues its deliveries in ordering-function order. A head
// tagged for a later group (a chain-bound rollover) ends the current
// group: the batch is empty.
func (e *Engine) buildProcessing() {
	e.pending = e.pendBuf[:0]
	e.resetRound()
	slices.SortFunc(e.queue, func(a, b queued) int {
		return e.f.Compare(a.key, b.key)
	})
	if e.queue[0].key.Group > e.curGroup {
		return
	}
	batch := e.safeBatchSize()
	for _, q := range e.queue[:batch] {
		e.pending = append(e.pending, Delivery{Node: q.m.To, Key: q.key, Msg: q.m})
	}
	e.pendBuf = e.pending
	e.queue = append(e.queue[:0], e.queue[batch:]...)
}

// safeBatchSize returns how many entries of the sorted queue may be
// delivered in one processing phase such that no message generated later
// can sort before them. A batch never crosses a group.
//
// OO: children carry d >= parent d + minLink, so every entry with
// d < minD+minLink is safe (minD is the head's d — the smallest live d).
//
// RO (chain-ordered): chains replay sequentially; only the head's chain is
// active, and within it the same d rule applies. A child of the active
// chain shares its hash, so entries of *other* chains are unsafe until the
// active chain drains.
func (e *Engine) safeBatchSize() int {
	head := e.queue[0].key
	threshold := head.Delay + e.minLink
	n := 1
	for ; n < len(e.queue); n++ {
		k := e.queue[n].key
		if k.Group != head.Group {
			break
		}
		if e.chains != nil && e.chains.ChainHash(k) != e.chains.ChainHash(head) {
			break
		}
		if k.Delay >= threshold {
			break
		}
	}
	return n
}

// recordStep finalizes StepInfo for the round that just completed. The
// modeled response time follows what the paper measures (Fig 6c, "the time
// to complete a transmission phase and a processing phase"): two
// distributed-semaphore barrier transitions (two traversals of the longest
// coordinator path plus per-node handling each), the round's slowest link,
// and the heaviest node's processing.
func (e *Engine) recordStep() {
	if e.roundDeliv == 0 {
		return // idle transition (e.g. empty group scan)
	}
	barrier := 2*e.maxSkew + vtime.Duration(e.G.N)*semaphoreCost
	heaviest := 0
	for _, c := range e.roundPerNode {
		if c > heaviest {
			heaviest = c
		}
	}
	resp := 2*barrier + e.maxLink + vtime.Duration(heaviest)*vtime.BaseProcessing
	e.steps.add(StepInfo{
		Group:           e.curGroup,
		Round:           e.round,
		Deliveries:      e.roundDeliv,
		ControlMessages: 2*(e.G.N+1) + e.G.N, // semaphore up/down + markers
		ResponseTime:    resp,
	})
	e.resetRound()
}

// ---- coarse stepping ----------------------------------------------------------

// extent is how far a coarse step runs.
type extent int

const (
	toRoundEnd extent = iota // until the current processing phase drains
	toGroupEnd               // until the current beacon group is exhausted
	toEnd                    // until the replay completes
)

// step is the one stepping loop behind StepRound, StepGroup and RunToEnd.
// It delivers events until the extent ends, the replay completes or a
// breakpoint pauses it, and returns how many it delivered; ok is false
// when there was nothing left to replay. A round ends when its pending
// list drains: step does not advance the phase past it, so the round's
// time is its own deliveries'.
func (e *Engine) step(x extent) (n int, ok bool) {
	for len(e.pending) == 0 {
		if !e.advancePhase() {
			return 0, false
		}
	}
	g := e.curGroup
	for {
		if len(e.pending) == 0 &&
			(x == toRoundEnd || !e.advancePhase() || x == toGroupEnd && e.curGroup != g) {
			return n, true
		}
		if e.StepEvent(); e.breakHit != nil {
			return n, true
		}
		n++
	}
}

// StepRound executes deliveries until the current processing phase
// completes (one debugger "step" at per-round granularity — the unit the
// paper's Figure 6c times). It returns the deliveries made and whether
// any work was left.
func (e *Engine) StepRound() (int, bool) { return e.step(toRoundEnd) }

// StepGroup replays the remainder of the current group (the "per-path-
// change" granularity of §2.1), returning what StepRound does.
func (e *Engine) StepGroup() (int, bool) { return e.step(toGroupEnd) }

// RunToEnd replays everything remaining (or until a breakpoint fires) and
// returns the number of deliveries made.
func (e *Engine) RunToEnd() int {
	n, _ := e.step(toEnd)
	return n
}

// Segment sizes of a segLog: the first segment holds segFirst entries,
// each next one twice its predecessor, up to segLen.
const (
	segFirst = 16
	segLen   = 256
)

// segLog is an append-only log kept as a list of segments. A full segment
// is never regrown: the next entry starts a new one, so growth copies no
// entry, and a short log (a node that receives little) stays small.
type segLog[T any] struct {
	segs [][]T
	n    int
}

// add appends v.
func (l *segLog[T]) add(v T) {
	k := len(l.segs)
	if k == 0 || len(l.segs[k-1]) == cap(l.segs[k-1]) {
		size := segFirst
		if k > 0 {
			size = min(2*cap(l.segs[k-1]), segLen)
		}
		l.segs = append(l.segs, make([]T, 0, size))
		k++
	}
	l.segs[k-1] = append(l.segs[k-1], v)
	l.n++
}

// all returns a fresh slice of every entry in order (nil when empty).
func (l *segLog[T]) all() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for _, s := range l.segs {
		out = append(out, s...)
	}
	return out
}
