package netsim

// This file is the Lane type (one queue, pool and window state, through
// which engines schedule in both modes), the sharded runtime's worker-side
// window loop, and its driver-side orchestration (serial steps, window
// horizons, the commit-barrier merge). See the package comment for the
// concurrency contract and the shard package comment for the determinism
// argument.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"defined/internal/eventq"
	"defined/internal/msg"
	"defined/internal/shard"
	"defined/internal/vtime"
)

// Lane owns the event queue and message pool of a set of nodes. Engines
// hold the Lane of each node they drive and go through it for Now, Send,
// scheduling, Cancel/Rearm and Pool. Sequential mode is one lane on the
// driver queue: every node's Lane is the Sim's own, whose queue and pool
// are the driver's. In sharded mode each lane owns a contiguous range of
// nodes and executes their events on a worker goroutine during parallel
// windows. Either way a Lane operation has one body, so engine code is
// identical in both modes.
//
// During a window a Lane's methods must only be called from its own
// worker (equivalently: from the delivery handlers and timers of its own
// nodes). Outside windows everything runs on the driver goroutine.
type Lane struct {
	s   *Sim
	idx int32

	q    eventq.Queue
	pool msg.Pool
	log  shard.Log

	inWindow bool
	now      vtime.Time
	curSeq   uint64
	winEnd   vtime.Time
	provN    uint64

	// doomed caches the (at, seq) keys of queued app arrivals that the
	// current link/node state would drop at delivery time, sorted. Their
	// drops mutate cross-shard state, so doomed[0].at caps the window
	// horizon and the drop executes in a serial step.
	doomed []evKey

	nEvents int
	nPops   int
	err     any
}

// evKey orders queued events by (timestamp, sequence).
type evKey struct {
	at  vtime.Time
	seq uint64
}

// Now returns the Lane's current virtual time: the executing event's
// timestamp during a window, the global clock otherwise.
func (l *Lane) Now() vtime.Time {
	if l.inWindow {
		return l.now
	}
	return l.s.now
}

// InWindow reports whether the Lane is currently executing a parallel
// window slice on its worker.
func (l *Lane) InWindow() bool { return l.inWindow }

// CurAt and CurSeq are the (at, seq) label of the event being executed: the
// Lane's worker's inside a window (where CurSeq may be provisional), the
// driver's otherwise.
func (l *Lane) CurAt() vtime.Time { return l.Now() }
func (l *Lane) CurSeq() uint64 {
	if l.inWindow {
		return l.curSeq
	}
	return l.s.curSeq
}

// Pool returns the message pool this Lane's nodes allocate from: the
// simulator's pool in sequential mode, the lane's own in sharded mode
// (concurrent, since receivers on other lanes release into it).
func (l *Lane) Pool() *msg.Pool { return &l.pool }

// Send transmits m like Sim.Send. During a window the boundary-crossing
// half (jitter draw, FIFO clamp, destination push) is logged and applied
// at the commit barrier; send-time droppability is still decided here,
// against the link/node state frozen for the window, so the return value
// and sender stats match the sequential engine exactly.
func (l *Lane) Send(m *msg.Message) bool {
	if !l.inWindow {
		return l.s.Send(m)
	}
	// The loss/duplication fate is a per-directed-link counter draw (see
	// Config.DropProb): the counter cell belongs to this lane like the
	// sender's stats, and advances in the same per-link send order as the
	// sequential engine, so the fate is identical. A duplicate is a second
	// logged send: at the barrier it draws its own wire delay right after
	// the original, exactly as Send's second copy does.
	idx, copies := l.s.admit(m)
	for range copies {
		l.log.Add(shard.Action{Kind: shard.ActionSend, Msg: m.Retain(), Link: int32(idx)})
	}
	return copies > 0
}

// ScheduleCall schedules a pre-bound Caller at time at (>= the Lane's
// current time) for one of this Lane's nodes, allocating nothing; a plain
// callback goes through eventq.Func. From the driver the event is pushed
// under the next insertion sequence; from inside a window, under a
// provisional sequence the commit barrier resolves.
func (l *Lane) ScheduleCall(at vtime.Time, c eventq.Caller) eventq.Handle {
	if now := l.Now(); at < now {
		at = now
	}
	if !l.inWindow {
		return l.q.PushCallSeq(at, l.s.nextSeq(), c)
	}
	prov := shard.ProvSeq(int(l.idx), l.provN)
	l.provN++
	h := l.q.PushCallSeq(at, prov, c)
	l.log.Add(shard.Action{Kind: shard.ActionLocalPush, H: h, Prov: prov})
	return h
}

// ScheduleCallSeq schedules a pre-bound Caller for one of this Lane's nodes
// under a sequence from Sim.ReserveSeq. The label is already final, so a
// push from inside a window needs no provisional sequence and leaves
// nothing for the commit barrier to resolve.
func (l *Lane) ScheduleCallSeq(at vtime.Time, seq uint64, c eventq.Caller) eventq.Handle {
	if now := l.Now(); at < now {
		at = now
	}
	return l.q.PushCallSeq(at, seq, c)
}

// AfterCall schedules a pre-bound Caller d after the Lane's current time.
func (l *Lane) AfterCall(d vtime.Duration, c eventq.Caller) eventq.Handle {
	return l.ScheduleCall(l.Now().Add(d), c)
}

// Cancel removes a scheduled event of this Lane's nodes. Cancelling an
// already-fired event — even one whose queue slot has since been reused —
// is a safe no-op. A cancelled window-phase push still consumes its
// sequence at commit, exactly as the sequential engine consumed one at
// push time.
func (l *Lane) Cancel(h eventq.Handle) { l.q.Remove(h) }

// Rearm slides a scheduled event to a new fire time (clamped to the Lane's
// current time), keeping its handle and insertion sequence and allocating
// nothing. It reports whether the event was still pending; re-arming an
// already-fired event is a safe no-op, and the caller should schedule
// afresh.
func (l *Lane) Rearm(h eventq.Handle, at vtime.Time) bool {
	if now := l.Now(); at < now {
		at = now
	}
	return l.q.Reschedule(h, at)
}

// runWindow executes the Lane's slice of the current window on its worker:
// every queued event with at < winEnd, in (at, seq) order. Panics are
// captured and re-raised on the driver at the barrier.
func (l *Lane) runWindow() {
	defer func() {
		if r := recover(); r != nil {
			l.err = r
		}
	}()
	for {
		at, seq, ok := l.q.NextAtSeq()
		if !ok || at >= l.winEnd {
			return
		}
		ev, _ := l.q.Pop()
		l.now = at
		l.curSeq = seq
		l.nEvents++
		l.log.BeginExec(at, seq)
		switch ev.Kind {
		case eventq.KindDeliver:
			l.nPops++
			l.deliver(ev.Msg)
		case eventq.KindCall:
			ev.Call.Fire()
		}
	}
}

// deliver is the window-phase delivery path. Delivery-time drops mutate
// cross-shard state, so the horizon protocol guarantees none can be
// scheduled inside a window; hitting one here is a runtime bug.
func (l *Lane) deliver(m *msg.Message) {
	m.CheckLive("deliver")
	if l.s.doomed(m) {
		panic(fmt.Sprintf("netsim: doomed delivery %s inside a parallel window", m))
	}
	l.s.receive(m)
}

// WinDeliver is one application-message delivery scheduled inside the
// upcoming window, as handed to the WindowObserver.
type WinDeliver struct {
	At  vtime.Time
	Seq uint64
	Msg *msg.Message
}

// WindowObserver lets an engine bracket parallel windows. BeginWindow runs
// on the driver before the workers start, with the window's scheduled app
// deliveries in global (at, seq) execution order — engines use it to
// precompute read-only schedules of any global estimator their handlers
// consult, since handlers must not mutate shared state mid-window.
// EndWindow runs on the driver after the commit barrier.
type WindowObserver interface {
	BeginWindow(delivers []WinDeliver)
	EndWindow()
}

// SetWindowObserver registers the engine's window bracket (sharded mode
// only; never called on the sequential engine).
func (s *Sim) SetWindowObserver(o WindowObserver) { s.obs = o }

// Sharded reports whether the sharded runtime is active.
func (s *Sim) Sharded() bool { return s.lanes != nil }

// LaneFor returns node n's Lane. In sequential mode every node shares the
// driver's lane.
func (s *Sim) LaneFor(n msg.NodeID) *Lane {
	if s.lanes == nil {
		return &s.lane0
	}
	return s.lanes[s.laneOf[n]]
}

// SetPoison switches message-lifecycle poison mode on the simulator's pool
// and every lane pool.
func (s *Sim) SetPoison(on bool) {
	s.lane0.pool.SetPoison(on)
	for _, l := range s.lanes {
		l.pool.SetPoison(on)
	}
}

// PoolViolations sums lifecycle violations across the simulator's pool and
// every lane pool.
func (s *Sim) PoolViolations() uint64 {
	v := s.lane0.pool.Violations()
	for _, l := range s.lanes {
		v += l.pool.Violations()
	}
	return v
}

// PoolLive sums checked-out (live) messages across the simulator's pool
// and every lane pool. At quiescence it is the leak oracle's left-hand
// side: every live message must be referenced by some engine structure.
func (s *Sim) PoolLive() int {
	n := s.lane0.pool.Live()
	for _, l := range s.lanes {
		n += l.pool.Live()
	}
	return n
}

// initShards builds the sharded runtime when Config.Shards asks for it.
// Nodes are partitioned contiguously (node IDs are dense, and neighbours
// in generated topologies tend to be ID-close, which keeps some traffic
// shard-local). The worker pool is sized to the shard count; workers hold
// no reference to the Sim, and a cleanup closes the work channel when the
// Sim is collected, so idle engines do not leak goroutines. It is a
// cleanup, not a finalizer: every Lane points back at its Sim, and a
// finalizer on an object inside a cycle never runs, which kept every
// sharded Sim and all it reached alive for the life of the process.
func (s *Sim) initShards() {
	nsh := s.cfg.Shards
	if nsh > s.G.N {
		nsh = s.G.N
	}
	s.lane0.s = s
	if nsh <= 1 {
		return
	}
	s.lanes = make([]*Lane, nsh)
	for i := range s.lanes {
		s.lanes[i] = &Lane{s: s, idx: int32(i)}
		s.lanes[i].pool.SetConcurrent(true)
	}
	s.laneOf = make([]int32, s.G.N)
	for n := 0; n < s.G.N; n++ {
		s.laneOf[n] = int32(n * nsh / s.G.N)
	}
	s.lookahead = vtime.Duration(1) << 62
	for _, lk := range s.G.Links {
		if lk.Delay < s.lookahead {
			s.lookahead = lk.Delay
		}
	}
	if len(s.G.Links) == 0 || s.lookahead < 1 {
		s.lookahead = 1
	}
	workCh := make(chan *Lane)
	wg := new(sync.WaitGroup)
	s.workCh = workCh
	s.winWG = wg
	for w := 0; w < nsh; w++ {
		go func() {
			for l := range workCh {
				l.runWindow()
				wg.Done()
			}
		}()
	}
	runtime.AddCleanup(s, func(ch chan *Lane) { close(ch) }, workCh)
}

// minSource locates the globally minimal pending event: src -1 for the
// driver queue, a lane index otherwise; ok is false when everything is
// drained. Sequences are globally unique outside windows, so the minimum
// is unambiguous.
func (s *Sim) minSource() (src int, ok bool) {
	src = -2
	var bAt vtime.Time
	var bSeq uint64
	if at, seq, qok := s.lane0.q.NextAtSeq(); qok {
		src, bAt, bSeq = -1, at, seq
	}
	for i, l := range s.lanes {
		at, seq, lok := l.q.NextAtSeq()
		if !lok {
			continue
		}
		if src == -2 || at < bAt || (at == bAt && seq < bSeq) {
			src, bAt, bSeq = i, at, seq
		}
	}
	return src, src != -2
}

// serialStep executes the globally minimal event (from minSource) on the
// driver with full sequential semantics — the fallback for everything a
// window cannot run: driver-queue events, doomed deliveries, and windows
// with a single active lane.
func (s *Sim) serialStep(src int) {
	var ev eventq.Event
	var ok bool
	if src < 0 {
		ev, ok = s.lane0.q.Pop()
	} else {
		l := s.lanes[src]
		ev, ok = l.q.Pop()
		if len(l.doomed) > 0 && l.doomed[0].at == ev.At && l.doomed[0].seq == ev.Seq {
			l.doomed = l.doomed[1:]
		}
	}
	if !ok {
		panic("netsim: serialStep with no pending event")
	}
	s.serialSteps++
	s.exec(ev)
}

// rescanDooms rebuilds every lane's doomed-arrival cache after a link or
// node state change. Freshly pushed arrivals passed the send-time check
// under the current state, so only state changes create (or clear) doom.
func (s *Sim) rescanDooms() {
	for _, l := range s.lanes {
		l.doomed = l.doomed[:0]
		l.q.Scan(func(ev eventq.Event) {
			if ev.Kind == eventq.KindDeliver && s.doomed(ev.Msg) {
				l.doomed = append(l.doomed, evKey{at: ev.At, seq: ev.Seq})
			}
		})
		slices.SortFunc(l.doomed, func(a, b evKey) int {
			if a.at != b.at {
				if a.at < b.at {
					return -1
				}
				return 1
			}
			if a.seq < b.seq {
				return -1
			}
			if a.seq > b.seq {
				return 1
			}
			return 0
		})
	}
	s.doomDirty = false
}

// runSharded is the sharded main loop: serial steps for boundary-crossing
// events, parallel windows for everything else. Returns the number of
// events executed and whether the queues drained (until == Never). The
// maxEvents budget is checked between windows.
func (s *Sim) runSharded(until vtime.Time, maxEvents int) (int, bool) {
	n := 0
	for {
		if n >= maxEvents {
			return n, false
		}
		if s.doomDirty {
			s.rescanDooms()
		}
		src, ok := s.minSource()
		if !ok {
			return n, true
		}
		if src < 0 {
			// The frontier event is a driver event: always serial.
			if at := s.lane0.q.NextAt(); until != vtime.Never && at > until {
				return n, false
			}
			s.serialStep(src)
			n++
			continue
		}
		mkAt := s.lanes[src].q.NextAt()
		if until != vtime.Never && mkAt > until {
			return n, false
		}
		caps := s.capsBuf[:0]
		if at := s.lane0.q.NextAt(); at != vtime.Never {
			caps = append(caps, at)
		}
		for _, l := range s.lanes {
			if len(l.doomed) > 0 {
				caps = append(caps, l.doomed[0].at)
			}
		}
		if until != vtime.Never {
			caps = append(caps, until.Add(1))
		}
		s.capsBuf = caps[:0]
		wEnd := shard.WindowEnd(mkAt, s.winHorizon(mkAt), caps...)
		active := 0
		if wEnd > mkAt {
			for _, l := range s.lanes {
				if at := l.q.NextAt(); at < wEnd {
					active++
				}
			}
		}
		if active >= 2 {
			n += s.execWindow(wEnd)
		} else {
			s.serialStep(src)
			n++
		}
	}
}

// winHorizon computes the conservative horizon for a window whose
// frontier event is at mkAt: the earliest timestamp at which any event
// executed in the window could still create a new arrival. Without
// Config.Lookahead this is the PR 6 bound, one global minimum link delay
// past the frontier. With it, the bound is per directed link: a send on
// u→v fires no earlier than u's lane's next event time, arrives no
// earlier than that plus the link's static delay, and the FIFO clamp
// forbids landing at or before the direction's frontier (lastArr) — so
// each direction contributes max(laneNext(u) + delay, frontier(u→v) + 1)
// and the horizon is the minimum over all directions. Lanes with empty
// queues cannot fire anything this window and constrain nothing; down
// links still constrain (control traffic ignores link state). The result
// is always at least mkAt + min delay, so lookahead windows are never
// narrower than the global bound — only barrier placement moves, never
// what executes, which keeps committed orders bit-identical.
func (s *Sim) winHorizon(mkAt vtime.Time) vtime.Time {
	if !s.cfg.Lookahead {
		return mkAt.Add(s.lookahead)
	}
	ln := s.laneNextBuf[:0]
	for _, l := range s.lanes {
		ln = append(ln, l.q.NextAt())
	}
	s.laneNextBuf = ln[:0]
	horizon := vtime.Never
	for idx := range s.G.Links {
		lk := &s.G.Links[idx]
		d := lk.Delay
		if d < 1 {
			d = 1
		}
		if na := ln[s.laneOf[lk.A]]; na != vtime.Never {
			b := na.Add(d)
			if f := s.lastArr[dirIndex(idx, msg.NodeID(lk.A), msg.NodeID(lk.B))].Add(1); f > b {
				b = f
			}
			if b < horizon {
				horizon = b
			}
		}
		if nb := ln[s.laneOf[lk.B]]; nb != vtime.Never {
			b := nb.Add(d)
			if f := s.lastArr[dirIndex(idx, msg.NodeID(lk.B), msg.NodeID(lk.A))].Add(1); f > b {
				b = f
			}
			if b < horizon {
				horizon = b
			}
		}
	}
	return horizon
}

// execWindow runs one parallel window [frontier, wEnd) across every lane
// with events in range, then commits: worker logs are merged in global
// (at, seq) order, deferred sends fire, provisional sequences resolve, and
// the engine's window bracket closes. Returns the number of events the
// window executed.
func (s *Sim) execWindow(wEnd vtime.Time) int {
	s.windows++
	act := s.actLanes[:0]
	for _, l := range s.lanes {
		if at := l.q.NextAt(); at < wEnd {
			act = append(act, l)
		}
	}
	s.actLanes = act
	if s.obs != nil {
		s.winDel = s.winDel[:0]
		for _, l := range act {
			l.q.Scan(func(ev eventq.Event) {
				if ev.Kind == eventq.KindDeliver && ev.At < wEnd && ev.Msg.Kind == msg.KindApp {
					s.winDel = append(s.winDel, WinDeliver{At: ev.At, Seq: ev.Seq, Msg: ev.Msg})
				}
			})
		}
		slices.SortFunc(s.winDel, func(a, b WinDeliver) int {
			if a.At != b.At {
				if a.At < b.At {
					return -1
				}
				return 1
			}
			if a.Seq < b.Seq {
				return -1
			}
			if a.Seq > b.Seq {
				return 1
			}
			return 0
		})
		s.obs.BeginWindow(s.winDel)
	}
	for _, l := range act {
		l.winEnd = wEnd
		l.inWindow = true
		l.nEvents = 0
		l.nPops = 0
		l.err = nil
	}
	s.winWG.Add(len(act))
	for _, l := range act {
		s.workCh <- l
	}
	s.winWG.Wait()
	total := 0
	for _, l := range act {
		l.inWindow = false
		if l.err != nil {
			panic(l.err)
		}
		total += l.nEvents
		s.inFlight -= l.nPops
		s.processed += uint64(l.nEvents)
		if l.now > s.now {
			s.now = l.now
		}
	}
	logs := s.logsBuf[:0]
	for _, l := range act {
		logs = append(logs, &l.log)
	}
	s.logsBuf = logs[:0]
	shard.Merge(logs, &s.seqNext, s.applyAction)
	for _, l := range act {
		l.log.Reset()
	}
	if s.obs != nil {
		s.obs.EndWindow()
	}
	return total
}

// applyAction replays one logged window action at the commit barrier, in
// the global order Merge establishes, under the global sequence the
// sequential engine would have assigned.
func (s *Sim) applyAction(lane int, e *shard.Exec, a *shard.Action, seq uint64) {
	switch a.Kind {
	case shard.ActionLocalPush:
		// Resolve the provisional push to its real sequence; stale handles
		// (the event already fired or was cancelled) still consumed the
		// sequence, matching the sequential engine's push-time assignment.
		s.actLanes[lane].q.SetSeq(a.H, seq)
	case shard.ActionSend:
		m := a.Msg
		at := s.arrivalAt(int(a.Link), m, e.At)
		// The log's retained reference transfers to the queue as the
		// in-flight reference.
		s.lanes[s.laneOf[m.To]].q.PushDeliverSeq(at, seq, m)
		s.inFlight++
	}
}
