// Package netsim is the deterministic discrete-event network simulator the
// reproduction runs on in place of the paper's Emulab testbed.
//
// The simulator executes a single totally-ordered event timeline in virtual
// time. Per-packet delay jitter is drawn from a seeded stream, so a given
// (topology, workload, seed) triple always produces the identical packet
// arrival schedule, while different seeds produce the *different arrival
// orderings* that DEFINED-RB must mask to deliver deterministic execution.
//
// Links are FIFO in each direction (packets on one link never overtake each
// other), matching the TCP/adjacency transports control-plane protocols
// use; cross-link and cross-sender reordering — the nondeterminism the
// paper targets — arises naturally from differing path delays and jitter.
//
// The event path is allocation-aware: scheduling goes through eventq's
// slab-backed queue (a delivery or a Caller per event, no boxing), link
// state and the per-directed-link FIFO clamp and wire counters are dense
// arrays indexed by the topology's link indices — which Send and delivery
// find by a binary search of the sender's row of topology.Graph's
// adjacency table, with no map — and per-kind traffic counters are fixed
// arrays indexed by msg.Kind. Message lifetime follows the refcounted
// lifecycle in the msg package comment: Send retains while a message is
// in flight and releases after the delivery handler returns, for every
// traffic class. Handlers receive borrows — a layer that keeps a message
// past the callback (history windows, defer buffers) must Retain it;
// transient control traffic (anti-messages) recycles through the
// simulator's Pool() the moment its handler returns, because the sending
// engine released its own reference right after Send.
//
// # Concurrency contract
//
// Engines schedule through a node's Lane: the owner of an event queue and
// a message pool. Sequential mode is one lane on the driver queue — every
// node's Lane is the driver's — and the simulator runs its single
// totally-ordered timeline on one driver goroutine, not safe for
// concurrent use. Config.Shards enables the sharded runtime: nodes are
// partitioned across per-core lanes, each owning its nodes' event queue,
// message pool and delivery handlers, and execution alternates between
// serial steps on the driver and parallel windows (see the shard package
// comment for the model and its determinism argument). Either way every
// event is labelled from one counter in program order, so each event has
// the same (at, seq) label in both modes.
//
// Windows are bounded by lookahead, conservative-PDES style. The default
// bound is the global minimum link delay past the frontier event; with
// Config.Lookahead the driver instead computes a per-directed-link
// horizon — for each link direction u→v, the earliest arrival it can
// still produce is the sending lane's next event time plus the link's
// static delay, FIFO-clamped to one past the direction's frontier
// (lastArr) — and the window runs to the minimum over all directions.
// Both bounds are computed by the driver between windows from state only
// the driver writes, so the choice moves barrier placement and nothing
// else. Down links still constrain the per-link horizon: DEFINED's
// control traffic (anti-messages) rides them regardless of link state.
//
// Shard-local, touchable from a lane's worker during a window: the lane's
// own queue (scheduling, cancelling and re-arming events for its own
// nodes), its pool, per-node traffic stats of its own nodes, the
// wire-sequence loss/duplication counters of the link directions its
// nodes send on (each directed link has exactly one sending node, hence
// exactly one owning lane), and everything the attached handlers own. Boundary-crossing, driver-only:
// wire transmission (jitter stream, FIFO clamps and link frontiers,
// destination queues — window-phase Sends are logged as intents and
// applied at the commit barrier), link/node state, the drop callback, the
// global event sequence, and the window-horizon computation itself. The
// happens-before edges are the window handoff and the commit barrier:
// state the driver wrote before a window is visible to every worker, and
// everything a worker wrote is visible to the driver — and to every later
// window — after the barrier. Events execute in the same (timestamp,
// sequence) order as the sequential engine, so results are bit-identical
// for any shard count, any GOMAXPROCS, and lookahead on or off.
//
// # Determinism invariants
//
// Everything above reduces to a short list of coding rules, and the rules
// are machine-checked: internal/analysis/detlint (run in CI, and locally
// with `go run ./cmd/detlint ./...`) fails the build on a violation.
// Within this package and the rest of the engine set:
//
//   - no wall clock — vtime.Time from the event loop is the only clock
//     (detlint:wallclock). A time.Now here would make delivery order a
//     function of host speed.
//   - no math/rand or crypto/rand — jitter and loss draws come from
//     internal/rng's release-stable streams (detlint:detrand).
//   - no order-sensitive map iteration — Go randomizes map order per run,
//     so any range over a map either accumulates commutatively, sorts
//     what it collected before use, or carries a justified
//     //detlint:ordered annotation (detlint:maprange).
//
// The golden tests pin that the invariants held on a given run; detlint
// pins that the code cannot quietly stop maintaining them. Paired pool
// references (every msg.Pool.Get/Retain balanced by a Release) are the
// one rule checked at run time instead: faults.Check fails any run whose
// live pooled messages outnumber the ones engine structures still hold.
package netsim

import (
	"fmt"
	"sync"

	"defined/internal/eventq"
	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/shard"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Handler receives messages delivered to one node.
type Handler func(m *msg.Message)

// Config tunes simulator behaviour.
type Config struct {
	// Seed drives the jitter stream.
	Seed uint64
	// JitterScale multiplies each link's jitter standard deviation.
	// 0 means "use 1.0"; set Deterministic to disable jitter entirely.
	JitterScale float64
	// Deterministic disables delay jitter: every packet takes its link's
	// mean delay (the rollback engine sets it for an engine block's
	// jitterScale 0).
	Deterministic bool
	// DropProb is an optional per-packet loss probability applied to app
	// messages (not control traffic). The loss fate of the n-th packet
	// fired on a directed link is a counter-seeded hash of (Seed, link
	// direction, n) rather than a draw from a shared stream, so it is
	// independent of global send order — which is what lets loss compose
	// with Shards (see the concurrency contract).
	DropProb float64
	// DupProb is an optional per-packet duplication probability applied to
	// app messages that survive the loss draw: the packet is scheduled
	// twice, the copy drawing its own wire delay and FIFO-clamped after
	// the original, so the duplicate always trails it on the link. Keyed
	// like DropProb, so duplication composes with Shards too.
	DupProb float64
	// Shards enables the sharded parallel runtime with the given number of
	// per-core shards (clamped to the node count). 0 or 1 selects the
	// sequential engine. Results are bit-identical across shard counts; see
	// the package comment's concurrency contract.
	Shards int
	// Lookahead enables per-directed-link window horizons in the sharded
	// runtime: instead of one global minimum link delay past the frontier,
	// the window end is the minimum over directed links of the earliest
	// arrival that link can still produce (the sending lane's next event
	// time plus the link's static delay, FIFO-clamped past the link
	// frontier). Windows get strictly wider — fewer commit barriers for
	// the same committed execution — and stay bit-identical to the
	// sequential engine (the horizon only moves where barriers fall, never
	// what executes between them). Off by default so existing goldens pin
	// the PR 6 window placement; no effect on the sequential engine.
	Lookahead bool
}

// NodeStats counts per-node traffic, the raw material of the control
// overhead figures (6a, 8a). Drops are split by where the loss is
// observed: DroppedTx counts send-time drops (link or endpoint already
// down when the packet would leave, or injected loss) at the sender;
// DroppedRx counts delivery-time drops (link failed mid-flight or
// destination down on arrival) at the receiver. A single loss is counted
// exactly once, on exactly one side.
type NodeStats struct {
	Sent      uint64
	Received  uint64
	DroppedTx uint64 // send-time drops, charged to this node as sender
	DroppedRx uint64 // delivery-time drops, charged to this node as receiver
	ByKindIn  [msg.NumKinds]uint64
	ByKindOut [msg.NumKinds]uint64
}

// Sim is a deterministic discrete-event network simulation. All calls into
// a Sim must come from the driver goroutine (or, with Config.Shards, from
// the owning Lane during a parallel window — see the package comment's
// concurrency contract); determinism does not depend on GOMAXPROCS.
// Engines schedule, cancel and re-arm through a node's Lane (LaneFor).
type Sim struct {
	G   *topology.Graph
	cfg Config

	now    vtime.Time
	curSeq uint64 // sequence of the event the driver is executing
	// lane0 is the driver's lane. Its queue holds every event in
	// sequential mode, and in sharded mode the boundary-crossing ones
	// (scenario callbacks, driver timers), which always execute serially.
	// Its pool is the simulator's (Pool).
	lane0 Lane
	// seqNext labels every event, in every queue, in program order: the
	// one insertion sequence that makes runs bit-identical across shard
	// counts.
	seqNext  uint64
	handlers []Handler
	nodeUp   []bool
	linkUp   []bool
	// lastArr is the FIFO clamp: last scheduled arrival per directed
	// link, indexed 2*linkIdx (+1 for the high→low direction). Arrivals
	// are always > 0, so zero means "no packet sent yet".
	lastArr []vtime.Time
	jitter  *rng.Source
	// lossKey seeds the per-directed-link loss/duplication draws; wireSeq
	// counts app packets fired per directed link (same indexing as
	// lastArr). A cell is written only by the sender's owner — its lane's
	// worker during a window, the driver otherwise — exactly like the
	// sender's stats, so the counters advance in per-link send order in
	// both modes and the draws are bit-identical for any shard count.
	lossKey   uint64
	wireSeq   []uint64
	stats     []NodeStats
	inFlight  int
	processed uint64
	onDrop    func(m *msg.Message)

	// Sharded runtime (nil lanes == sequential engine).
	lanes     []*Lane
	laneOf    []int32
	lookahead vtime.Duration
	doomDirty bool
	obs       WindowObserver
	workCh    chan *Lane
	winWG     *sync.WaitGroup
	actLanes  []*Lane
	logsBuf   []*shard.Log
	capsBuf   []vtime.Time
	winDel    []WinDeliver

	// Per-link lookahead state (Config.Lookahead): laneNextBuf caches each
	// lane's next event time while the driver computes the per-link window
	// horizon; windows/serialSteps count how execution split between
	// parallel windows (one commit barrier each) and serial fallback steps.
	laneNextBuf []vtime.Time
	windows     uint64
	serialSteps uint64
}

// dirIndex maps a directed link to its lastArr and wireSeq cell: twice
// the link index, plus one for the high→low direction. The numbering is
// kept although the adjacency table has slots of its own, because
// wireDraw hashes it: renumbering would redraw every packet's loss and
// duplication fate and so move every lossy run's committed order.
func dirIndex(linkIdx int, from, to msg.NodeID) int {
	i := 2 * linkIdx
	if from > to {
		i++
	}
	return i
}

// New creates a simulator over graph g.
func New(g *topology.Graph, cfg Config) *Sim {
	if cfg.JitterScale == 0 {
		cfg.JitterScale = 1.0
	}
	s := &Sim{
		G:        g,
		cfg:      cfg,
		handlers: make([]Handler, g.N),
		nodeUp:   make([]bool, g.N),
		linkUp:   make([]bool, len(g.Links)),
		lastArr:  make([]vtime.Time, 2*len(g.Links)),
		jitter:   rng.New(cfg.Seed).Derive("netsim-jitter"),
		lossKey:  rng.New(cfg.Seed).Derive("netsim-loss").Uint64(),
		wireSeq:  make([]uint64, 2*len(g.Links)),
		stats:    make([]NodeStats, g.N),
	}
	for i := range s.nodeUp {
		s.nodeUp[i] = true
	}
	for i := range s.linkUp {
		s.linkUp[i] = true
	}
	s.initShards()
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() vtime.Time { return s.now }

// Attach registers the delivery handler for node n, replacing any previous
// handler.
func (s *Sim) Attach(n msg.NodeID, h Handler) {
	s.handlers[n] = h
}

// Stats returns the traffic counters for node n. The returned pointer
// aliases live counters.
func (s *Sim) Stats(n msg.NodeID) *NodeStats { return &s.stats[n] }

// ResetStats zeroes all traffic counters (used between trace events when
// measuring per-event overhead).
func (s *Sim) ResetStats() {
	for i := range s.stats {
		s.stats[i] = NodeStats{}
	}
}

// Pool returns the simulator's message free list. Engines allocate wire
// messages from it (typically via an annotate.Sender for application
// traffic, directly for transient control messages) and release their own
// reference once transmission is handed off; the simulator's in-flight
// reference dies when the delivery handler returns.
func (s *Sim) Pool() *msg.Pool { return &s.lane0.pool }

// SetLinkState marks the a-b link up or down. Packets in flight on a link
// when it goes down are lost (checked at delivery time).
func (s *Sim) SetLinkState(a, b int, up bool) error {
	idx := s.G.LinkIndex(a, b)
	if idx < 0 {
		return fmt.Errorf("netsim: no link %d-%d", a, b)
	}
	s.linkUp[idx] = up
	s.doomDirty = s.lanes != nil
	return nil
}

// LinkState reports whether the a-b link is up. Missing links are down.
func (s *Sim) LinkState(a, b int) bool {
	idx := s.G.LinkIndex(a, b)
	return idx >= 0 && s.linkUp[idx]
}

// SetNodeState marks node n up or down. A down node receives nothing.
func (s *Sim) SetNodeState(n msg.NodeID, up bool) {
	s.nodeUp[n] = up
	s.doomDirty = s.lanes != nil
}

// Send transmits m from m.From to m.To over the connecting link. It
// returns false when the packet is immediately droppable: the link or
// either endpoint is down, or injected loss hit. Delivery is scheduled at
// now + delay + jitter, FIFO-clamped per directed link.
//
// Send borrows m from the caller and retains its own in-flight reference
// on success (released after the delivery handler returns); a false
// return retained nothing.
//
// Only application traffic (msg.KindApp) is subject to link and node state:
// DEFINED's own control messages (anti-messages, lockstep coordination)
// ride a reliable out-of-band channel, as the paper's TCP-based
// coordination does (§2.3 and footnote 4).
func (s *Sim) Send(m *msg.Message) bool {
	idx, copies := s.admit(m)
	for range copies {
		at := s.arrivalAt(idx, m, s.now)
		s.LaneFor(m.To).q.PushDeliverSeq(at, s.nextSeq(), m.Retain())
		s.inFlight++
	}
	return copies > 0
}

// admit is the send-time half of Send that is the sender's to decide: it
// counts the send, applies link/node state and the wire fate, and returns
// the link and how many copies go on the wire (0 when the packet is
// dropped, 2 when it is duplicated). It touches only the sender's cells,
// so a lane's worker runs it inside a window against the state frozen for
// the window, with the same result as the driver would get.
func (s *Sim) admit(m *msg.Message) (idx, copies int) {
	m.CheckLive("Send")
	idx = s.G.LinkIndex(int(m.From), int(m.To))
	if idx < 0 {
		panic(fmt.Sprintf("netsim: send over non-existent link %d-%d", m.From, m.To))
	}
	st := &s.stats[m.From]
	st.Sent++
	st.ByKindOut[m.Kind]++
	if m.Kind != msg.KindApp {
		return idx, 1
	}
	if !s.linkUp[idx] || !s.nodeUp[m.From] || !s.nodeUp[m.To] {
		st.DroppedTx++
		return idx, 0
	}
	drop, dup := s.wireFate(m, idx)
	if drop {
		st.DroppedTx++
		return idx, 0
	}
	if dup {
		return idx, 2
	}
	return idx, 1
}

// wireFate draws the loss and duplication fate for an app packet about to
// fire on link idx, advancing the directed link's wire-sequence counter.
// The fate is a pure function of (Seed, direction, counter), so it does
// not depend on what any other link — or any other lane — is doing; the
// counter cell is owned by the sender's lane like the sender's stats.
func (s *Sim) wireFate(m *msg.Message, idx int) (drop, dup bool) {
	if s.cfg.DropProb <= 0 && s.cfg.DupProb <= 0 {
		return false, false
	}
	di := dirIndex(idx, m.From, m.To)
	n := s.wireSeq[di]
	s.wireSeq[di]++
	if s.cfg.DropProb > 0 && wireDraw(s.lossKey, di, n, 0) < s.cfg.DropProb {
		return true, false
	}
	if s.cfg.DupProb > 0 && wireDraw(s.lossKey, di, n, 1) < s.cfg.DupProb {
		return false, true
	}
	return false, false
}

// wireDraw maps (key, directed link, wire sequence, salt) to a uniform
// [0,1) variate; salt 0 is the loss draw, 1 the duplication draw.
func wireDraw(key uint64, di int, n, salt uint64) float64 {
	h := rng.Hash64(key ^ rng.Hash64(n^(salt<<56)^(uint64(di)<<32)))
	return float64(h>>11) / float64(1<<53)
}

// arrivalAt draws the wire delay for a packet fired on link idx at fireAt
// and advances the directed link's FIFO clamp. Driver-only: it consumes
// the jitter stream and writes lastArr.
func (s *Sim) arrivalAt(idx int, m *msg.Message, fireAt vtime.Time) vtime.Time {
	link := s.G.Links[idx]
	delay := link.Delay
	if !s.cfg.Deterministic && link.Jitter > 0 {
		j := vtime.Duration(float64(link.Jitter) * s.cfg.JitterScale * absNorm(s.jitter))
		delay += j
	}
	if delay < 1 {
		delay = 1
	}
	at := fireAt.Add(delay)
	di := dirIndex(idx, m.From, m.To)
	if last := s.lastArr[di]; at <= last {
		at = last + 1 // FIFO: never overtake the previous packet
	}
	s.lastArr[di] = at
	return at
}

// nextSeq hands out the next insertion sequence.
func (s *Sim) nextSeq() uint64 {
	n := s.seqNext
	s.seqNext++
	return n
}

func absNorm(r *rng.Source) float64 {
	v := r.NormFloat64()
	if v < 0 {
		return -v
	}
	return v
}

// ScheduleFn runs fn at virtual time at (>= now) on the driver. fn may send
// messages or change link state. In sequential mode the returned handle
// can be cancelled or re-armed through any node's Lane (all are the
// driver's).
func (s *Sim) ScheduleFn(at vtime.Time, fn func()) eventq.Handle {
	return s.lane0.ScheduleCall(at, eventq.Func(fn))
}

// ReserveSeq sets aside the next n insertion sequences and returns the
// first, for events whose (at, seq) labels are known before they need to
// be queued; Lane.ScheduleCallSeq pushes under them. A producer of a long,
// known series of events (the rollback engine's per-node group ticks) can
// so keep only the next one queued and push each successor later under the
// label it would have had if the whole series had been pushed up front.
// Driver-only.
func (s *Sim) ReserveSeq(n uint64) (base uint64) {
	base = s.seqNext
	s.seqNext += n
	return base
}

// Step processes the next event with full sequential semantics. It returns
// false when no event is pending. In sharded mode it executes the globally
// minimal event serially (no window), so single-stepping stays exact.
func (s *Sim) Step() bool {
	if s.lanes != nil {
		src, ok := s.minSource()
		if !ok {
			return false
		}
		s.serialStep(src)
		return true
	}
	ev, ok := s.lane0.q.Pop()
	if !ok {
		return false
	}
	s.exec(ev)
	return true
}

// exec runs ev on the driver.
func (s *Sim) exec(ev eventq.Event) {
	s.now = ev.At
	s.curSeq = ev.Seq
	s.processed++
	switch ev.Kind {
	case eventq.KindDeliver:
		s.inFlight--
		s.deliver(ev.Msg)
	case eventq.KindCall:
		ev.Call.Fire()
	}
}

// OnDrop registers a callback invoked when an in-flight message is lost at
// delivery time (link failed mid-flight or destination down). Send-time
// drops are reported synchronously by Send's return value instead.
func (s *Sim) OnDrop(h func(m *msg.Message)) { s.onDrop = h }

func (s *Sim) deliver(m *msg.Message) {
	m.CheckLive("deliver")
	if s.doomed(m) {
		s.stats[m.To].DroppedRx++
		if s.onDrop != nil {
			s.onDrop(m)
		}
		m.Release() // the in-flight reference dies with the loss
		return
	}
	s.receive(m)
}

// doomed reports whether the current link/node state drops in-flight m at
// delivery: an app message whose link or destination is down.
func (s *Sim) doomed(m *msg.Message) bool {
	if m.Kind != msg.KindApp {
		return false
	}
	idx := s.G.LinkIndex(int(m.From), int(m.To))
	return idx < 0 || !s.linkUp[idx] || !s.nodeUp[m.To]
}

// receive hands m to its destination's handler and drops the in-flight
// reference; it touches only the receiver's cells.
func (s *Sim) receive(m *msg.Message) {
	st := &s.stats[m.To]
	st.Received++
	st.ByKindIn[m.Kind]++
	if h := s.handlers[m.To]; h != nil {
		h(m)
	}
	// The handler has returned; layers that keep the message retained it.
	// For transient control traffic this is the last reference, so the
	// struct recycles here.
	m.Release()
}

// Run processes events until the queue is empty or the next event is after
// until; it then advances the clock to until. Returns the number of events
// processed.
func (s *Sim) Run(until vtime.Time) int {
	var n int
	if s.lanes != nil {
		n, _ = s.runSharded(until, int(^uint(0)>>1))
	} else {
		for {
			at := s.lane0.q.NextAt()
			if at == vtime.Never || at > until {
				break
			}
			s.Step()
			n++
		}
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunQuiescent processes events until the queue drains or maxEvents is
// exceeded. It returns the number of events processed and whether the
// network quiesced (queue empty). In sharded mode the budget is checked
// between windows, so the count may overshoot by up to one window's events.
func (s *Sim) RunQuiescent(maxEvents int) (int, bool) {
	if s.lanes != nil {
		return s.runSharded(vtime.Never, maxEvents)
	}
	n := 0
	for s.lane0.q.Len() > 0 {
		if n >= maxEvents {
			return n, false
		}
		s.Step()
		n++
	}
	return n, true
}

// Pending reports the number of scheduled events (messages in flight plus
// timers/functions).
func (s *Sim) Pending() int {
	n := s.lane0.q.Len()
	for _, l := range s.lanes {
		n += l.q.Len()
	}
	return n
}

// InFlight reports the number of messages currently in flight.
func (s *Sim) InFlight() int { return s.inFlight }

// Processed reports the total number of events executed since creation
// (the throughput benchmarks' numerator).
func (s *Sim) Processed() uint64 { return s.processed }

// Windows reports how many parallel windows the sharded runtime has
// committed (each one costs exactly one commit barrier); always zero on
// the sequential engine.
func (s *Sim) Windows() uint64 { return s.windows }

// SerialSteps reports how many events the sharded runtime executed as
// serial fallback steps (driver events, doomed deliveries, windows with
// fewer than two active lanes); always zero on the sequential engine.
func (s *Sim) SerialSteps() uint64 { return s.serialSteps }

// NextAt exposes the timestamp of the next scheduled event (vtime.Never if
// none), letting engines interleave their own bookkeeping with the event
// loop. In sharded mode it is the minimum over the driver and lane queues.
func (s *Sim) NextAt() vtime.Time {
	at := s.lane0.q.NextAt()
	for _, l := range s.lanes {
		if la := l.q.NextAt(); la < at {
			at = la
		}
	}
	return at
}
