// Package rollback implements DEFINED-RB, the substrate that instruments a
// production network to execute deterministically (paper §2.2, §3).
//
// Every node runs a shim between the network and its control-plane
// application. Arriving events (messages, virtual-timer batches, external
// events) are inserted into a sliding-window history kept in
// ordering-function order and delivered to the application speculatively.
// When an arrival lands anywhere but the end of the window, the shim:
//
//  1. restores the checkpoint taken before the first out-of-order delivery,
//  2. "unsends" every message those deliveries produced — cancelling sends
//     still queued locally and emitting anti-messages for ones already on
//     the wire (anti-messages cascade: a receiver that already delivered
//     the target rolls back in turn, Time-Warp style),
//  3. replays the window suffix in the correct order.
//
// Determinism hinges on the s_i (origin sequence) and per-link send
// counters being part of the checkpointed state: replays after a rollback
// regenerate messages with identical annotations, so the final committed
// delivery sequence at every node depends only on the external events —
// not on jitter, arrival interleavings, or how many rollbacks occurred.
//
// Message loss is handled per the paper's footnote 4: drops are recorded
// as external events (by ordering key) so DEFINED-LS can replay them.
//
// # The engine block
//
// An engine is configured by one EngineSpec (spec.go), the block a
// scenario file's "engine" key holds. This package owns it: its fields,
// the one table of their defaults and the rules that reject contradictory
// blocks, all applied by ResolveEngine. New resolves the block it is given
// and unpacks it once into the plain fields the delivery path reads, so
// what a fingerprinted plan says and what the engine runs cannot drift.
// The beacon interval is not in the block: it is vtime.BeaconInterval.
//
// # Layers
//
// A node's shim (shim.go) composes five layers, each a value field of the
// shim that owns its fields and methods and holds no pointer to the shim or
// the engine: config values are copied in at construction, counters go to
// the shim's Stats. Each makes one guarantee; its type says why it holds.
//
//	layer      file       owns                                       guarantee
//	lookahead  defer.go   links (one per row slot), g, self          releases depend only on the node's own delivery stream
//	pending    defer.go   buf, capLB, flushH, flushAt, arrSeq,       a hold moves when an entry enters the window, never where
//	                      directSeq (buf, Window, marks, snaps, sent: slide.Bufs;
//	                      buf and Window hold history.Cells, a rank in place of a key)
//	window     window.go  Window, marks | snaps, japp, serial, hw    restoring checkpoint i puts back the state entry i was delivered in
//	ledger     ledger.go  sent, recs, replayPool, replayFresh,       a record lives while its cause can be undone; a replay leaves
//	                      dropLog (recs: the lane's recStore)        on the wire what it produced, annotated as the first pass was
//	settle     shim.go    last, lastKey, lastRank, has, log          entries, checkpoints and send records retire together, in order; stragglers are counted
//
// Per arrival the shim calls them in one fixed order:
//
//	estimator feed → quarantine guard → lookahead observe → pending decide →
//	window insert / deliver / undo / replay → ledger adopt / cancel → settle
//
// The arrival is ranked once, in onEntry, and travels as its cell from
// there; a cell derives its key (history.Cell.Key) only where ranks tie or
// the key itself is needed, while the cell still holds its message.
//
// A delivery reaches the application through annotate's Sender.Deliver,
// the rule DEFINED-LS delivers through too, and the ledger annotates its
// outputs from the Cause that returns. A baseline engine skips every layer:
// deliverBare hands the event to the same Deliver and sends its outputs
// untracked. The settle layer's cutoff is the engine's one settle
// estimator; a pinned EngineSpec.SettleBound is that estimator with floor =
// ceiling. onEntry says why the estimator feed precedes the guard, and the
// shim type why EngineSpec.Shards can run the same shims inside parallel
// windows with bit-identical results (TestShardGolden).
//
// # Determinism invariants
//
// The rollback engine's correctness claims — bit-identical committed
// orders across engines, checkpoints that rewind exactly — rest on coding
// rules that internal/analysis/detlint checks statically (in CI, and
// locally with `go run ./cmd/detlint ./...`):
//
//   - no wall clock (detlint:wallclock) — speculation, holds and settle
//     estimates are all in virtual time; a host-clock read anywhere in a
//     decision path would couple rollback behaviour to machine speed.
//   - no toolchain randomness (detlint:detrand) — the RO tie-break and
//     every workload draw come from internal/rng, stable across Go
//     releases.
//   - no order-sensitive map iteration (detlint:maprange) — anything a
//     map range feeds into committed order, undo logs or stats is either
//     a commutative fold or sorted before use (see flushDrops).
//   - journaled daemon state (detlint:journalbypass) — the routing
//     daemons' //detlint:checkpointable structs are only written through
//     setters that record an undo entry first, so Rewind can never meet
//     a mutation it cannot reverse.
//
// A message pool that quiesces to zero is checked at run time instead:
// each Get/Retain is released or stored into a structure HeldMessages
// counts (history window, sent records, deferral buffer), and
// faults.Check fails a run where PoolLive exceeds that count.
package rollback

import (
	"fmt"
	"reflect"
	"slices"

	"defined/internal/annotate"
	"defined/internal/checkpoint"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Stats aggregates engine-level counters.
type Stats struct {
	Deliveries       uint64 // committed + speculative deliveries performed
	Rollbacks        uint64 // rollback episodes
	RolledBack       uint64 // deliveries undone across all episodes
	AntiMessages     uint64 // anti-messages emitted
	Duplicates       uint64 // duplicate arrivals ignored
	LateAnti         uint64 // anti-messages whose target was already gone
	TimerBatches     uint64 // timer batch deliveries
	ExternalEvents   uint64 // external events applied
	DropsRecorded    uint64 // message-loss events recorded
	SettleViolations uint64 // stragglers that arrived after their slot retired
	LazyReuses       uint64 // replayed outputs that re-adopted their original transmission

	// Rollback-avoidance counters (PR 3). SpuriousRollbacks counts
	// episodes whose replay re-adopted 100 % of the original sends and
	// materialized nothing new — pure wasted speculation the deferral
	// layer exists to remove. RollbackDepthSum over Rollbacks is the mean
	// replay depth.
	Deferred           uint64 // arrivals held in the pending buffer
	DeferredFlushes    uint64 // flush batches that delivered pending arrivals
	DeferHits          uint64 // deferred arrivals a predecessor overtook while held
	PendingAnnihilated uint64 // anti-messages annihilated while their target was still pending
	SpuriousRollbacks  uint64 // rollbacks whose replay re-adopted every original send
	RollbackDepthSum   uint64 // window entries per episode's replay span (trigger included), summed

	// Per-link lookahead counters (PR 7), live only with EngineSpec.Lookahead.
	// LookaheadHolds counts arrivals the exact per-in-link rule held past
	// their arrival (a subset of Deferred); LookaheadExactFlushes counts
	// held entries whose flush came at their exact release time — neither
	// clipped by the DeferMax budget nor forced early by buffer overflow.
	LookaheadHolds        uint64 // arrivals held by the exact per-link release rule
	LookaheadExactFlushes uint64 // exact-held entries flushed at their exact release

	// Fault-injection counters (PR 8). NodeCrashes/NodeRestarts count
	// applied crash/restart faults (driver-side); PanicCrashes counts
	// application-handler panics recovered into crash quarantines (the node
	// is severed deterministically instead of killing the process);
	// QuarantinedDrops counts arrivals, antis, timer batches and externals
	// a quarantined shim discarded.
	NodeCrashes      uint64 // crash faults applied
	NodeRestarts     uint64 // restart faults applied
	PanicCrashes     uint64 // handler panics recovered into crash quarantines
	QuarantinedDrops uint64 // events discarded by quarantined shims

	// Route-computation cache counters (PR 5), aggregated at Stats() time
	// from every application implementing api.RecomputeCached.
	// RecomputeSkipped is the zero-lookup fast path (the daemon's current
	// result already carries the current topology epoch — the common case
	// in MI repair waves that recompute from an unchanged LSDB); hits
	// reused a memoized result at a different already-seen epoch; misses
	// ran the real computation.
	SPFCacheHits     uint64 // memoized route computations reused
	SPFCacheMisses   uint64 // route computations actually executed
	RecomputeSkipped uint64 // recomputes skipped (result already current)
}

// CommittedDeliveries is the number of deliveries that were never undone.
func (s Stats) CommittedDeliveries() uint64 { return s.Deliveries - s.RolledBack }

// add accumulates b into s, every field. Speculation counters live per
// shim (a shard must only touch its own nodes' counters during a parallel
// window) and are summed into the engine totals at Stats() time; every
// counter is a commutative sum, so the total is independent of shard
// count. The sum walks the struct, so a counter added to Stats cannot be
// left out of it.
func (s *Stats) add(b *Stats) {
	sv, bv := reflect.ValueOf(s).Elem(), reflect.ValueOf(b).Elem()
	for i := range sv.NumField() {
		f := sv.Field(i)
		f.SetUint(f.Uint() + bv.Field(i).Uint())
	}
}

// Engine drives one production network under DEFINED-RB (or bare, when
// the engine block sets Baseline).
type Engine struct {
	G *topology.Graph

	// The resolved engine block, unpacked once by New into what the
	// per-delivery path reads.
	ord        ordering.Func
	baseline   bool
	pooled     bool // wire messages are refcounted from the lane pools
	chainBound int

	sim     *netsim.Sim
	cost    checkpoint.CostModel
	shims   []*shim
	rec     *record.Recording
	stats   Stats // driver-only counters; speculation counters live per shim
	skew    []vtime.Duration
	deferOn bool
	lookOn  bool             // exact per-link holds (Lookahead && deferOn)
	est     *settleEstimator // the settle bound; a pinned SettleBound is one with floor = ceiling

	scheduledThrough vtime.Time // group ticks scheduled up to here
	tickSegs         []tickSeg  // one per Run call that crossed a group boundary

	// winSched is the read-only settle-bound schedule for the parallel
	// window in flight: the adaptive estimator is engine-global, so shims
	// executing inside a window must not feed it directly. BeginWindow
	// simulates the window's observations on a value copy and records the
	// bound after each one; settleBoundFor answers in-window reads from
	// the schedule, and EndWindow replays the observations into the real
	// estimator at the commit barrier. winBase is the bound before the
	// window's first observation.
	winSched []estStep
	winBase  vtime.Duration
}

// estStep is one scheduled in-window estimator observation: the app
// delivery's (at, seq) execution label, its straggler margin, and the
// adaptive bound after observing it.
type estStep struct {
	at     vtime.Time
	seq    uint64
	margin vtime.Duration
	bound  vtime.Duration
}

// New builds an engine over graph g with one application per node
// (len(apps) == g.N), configured by the engine block spec, which it
// resolves (ResolveEngine) and unpacks once. It panics with the resolve
// error on a contradictory block; callers that take a block from outside
// the program resolve it first. Applications are initialized with their
// neighbor sets; link cost is derived from propagation delay.
func New(g *topology.Graph, apps []api.Application, spec EngineSpec) *Engine {
	if len(apps) != g.N {
		panic(fmt.Sprintf("rollback: %d apps for %d nodes", len(apps), g.N))
	}
	spec, err := ResolveEngine(spec)
	if err != nil {
		panic(err.Error())
	}
	// Both names were checked by ResolveEngine.
	ord, _ := ordering.ByName(spec.Ordering, *spec.OrderingSeed)
	strat, _ := checkpoint.ParseStrategy(spec.Strategy)
	baseline := *spec.Baseline
	e := &Engine{
		G:          g,
		ord:        ord,
		baseline:   baseline,
		pooled:     *spec.MessagePool && !baseline,
		chainBound: *spec.ChainBound,
		cost:       checkpoint.ModelFor(strat),
		skew:       annotate.Skews(g),
	}
	if baseline {
		e.cost = checkpoint.Baseline()
	}
	// Deferral needs d_i-monotone keys (the gap rule reads Delay off
	// key-adjacent entries); ResolveEngine rejects it under RO, whose
	// chain-hash keys make the gap meaningless.
	e.deferOn = !baseline && *spec.Deferral
	// The exact hold reasons about pred(k) = group start + d_i, so it needs
	// the same delay-ordered keys the gap rule does; without deferral only
	// the simulator-side window widening remains.
	e.lookOn = e.deferOn && *spec.Lookahead
	if pin := spec.SettleBound.V(); pin > 0 {
		e.est = newSettleEstimator(pin, pin)
	} else {
		floor, static := settleBounds(g.MaxPropagation())
		e.est = newSettleEstimator(floor, 2*static)
	}
	e.sim = netsim.New(g, netsim.Config{
		Seed:          *spec.Seed,
		JitterScale:   *spec.JitterScale,
		Deterministic: *spec.JitterScale == 0,
		DropProb:      *spec.PerLinkLoss,
		DupProb:       *spec.Duplication,
		Shards:        *spec.Shards,
		Lookahead:     *spec.Lookahead,
	})
	if *spec.Poison {
		e.sim.SetPoison(true)
	}
	if e.sim.Sharded() {
		e.sim.SetWindowObserver(e)
	}
	if *spec.Record {
		e.rec = &record.Recording{
			Topology:       g.Name,
			Ordering:       ord.Name(),
			Seed:           *spec.OrderingSeed,
			BeaconInterval: vtime.BeaconInterval,
		}
	}
	slack, budget := spec.DeferSlack.V(), spec.DeferMax.V()
	if e.lookOn {
		budget *= lookBudgetMult
	}
	e.shims = make([]*shim, g.N)
	stores := map[*netsim.Lane]*recStore{} // one send-record store per lane
	for i := 0; i < g.N; i++ {
		n := msg.NodeID(i)
		sh := &shim{e: e, id: n, lane: e.sim.LaneFor(n), app: apps[i]}
		if stores[sh.lane] == nil {
			stores[sh.lane] = new(recStore)
		}
		sender := annotate.NewSender(n, g, e.chainBound, e.procEstimate(), e.skew[i])
		if *spec.MessagePool {
			// Wire messages come refcounted from the node's lane pool (the
			// engine-wide pool in sequential mode); the sentRec (a baseline
			// send's too) owns the reference Materialize or Build returns.
			sender.Pool = sh.lane.Pool()
		}
		if e.lookOn {
			sh.look = newLookahead(g, i, e.procEstimate(), slack)
		}
		sh.pend = pending{cmp: ord, slack: slack, max: spec.DeferMax.V(), budget: budget,
			lane: sh.lane, stats: &sh.stats, flushFn: sh.onFlush}
		sh.win = window{Window: history.New(ord), app: apps[i], sender: sender, stats: &sh.stats}
		sh.ledger = ledger{id: n, lane: sh.lane, recs: stores[sh.lane], sender: sender, stats: &sh.stats, dropLog: map[msg.ID]record.LossEvent{}}
		sh.settle = settle{cmp: ord, logging: *spec.DeliveryLog, stats: &sh.stats}
		sh.tick.sh = sh
		e.shims[i] = sh
		// The epoch-keyed route-computation cache is on by default inside
		// capable applications; an opted-out run disables it before Init
		// (and so before any computation) to reproduce the exact uncached
		// behaviour.
		if !*spec.RouteCache {
			if rc, ok := apps[i].(api.RecomputeCached); ok {
				rc.SetRouteCaching(false)
			}
		}
		apps[i].Init(n, annotate.Neighbors(g, n))
		// MI strategy + a journal-capable application = real undo-journal
		// checkpointing: marks instead of clones. Enabled only after Init
		// so boot-time mutations (which precede every checkpoint) are
		// never recorded. Apps without the capability fall back to clones.
		// The choice holds for the node's whole run, restarts included.
		if !baseline && strat.Mode == checkpoint.MI {
			if j, ok := apps[i].(api.Journaled); ok {
				j.JournalEnable()
				sender.JournalEnable()
				sh.win.japp = j
			}
		}
		e.sim.Attach(n, sh.onWire)
	}
	e.sim.OnDrop(e.onInFlightDrop)
	return e
}

// procEstimate is the deterministic per-hop processing cost folded into
// d_i estimates (base processing plus the checkpoint strategy's
// per-message overhead).
func (e *Engine) procEstimate() vtime.Duration {
	return vtime.BaseProcessing + e.cost.PerMessage
}

// StaticSettle implements the paper's static retirement bound: two times
// the maximum propagation time, upper-bounded as mean + 4σ of per-link
// delays accumulated over the propagation diameter (footnote 3). A beacon
// interval is added so settlement never outruns group formation. Setting
// EngineSpec.SettleBound to this value pins the pre-adaptive behaviour.
func StaticSettle(g *topology.Graph) vtime.Duration {
	_, static := settleBounds(g.MaxPropagation())
	return static
}

// settleBounds derives both settle rules from the propagation diameter
// maxProp: floor, the adaptive bound's minimum, is one jitter-headroomed
// propagation sweep plus a beacon interval; static is StaticSettle's rule,
// two sweeps plus a beacon interval. The estimator's margin term replaces
// the static rule's second sweep, which is what lets quiet networks retire
// history (and compact journals) roughly twice as fast.
func settleBounds(maxProp vtime.Duration) (floor, static vtime.Duration) {
	// Jitter is a small fraction of delay; 4σ over the diameter is
	// approximated by 40% headroom on the propagation bound.
	sweep := maxProp + maxProp*2/5
	return sweep + vtime.BeaconInterval, 2*sweep + vtime.BeaconInterval
}

// settleBoundFor returns the retirement bound as shim sh sees it. Outside
// parallel windows it reads the live estimator; inside one it reads the
// precomputed window schedule at the shim's current (at, seq) execution
// point, so every shim observes exactly the bound the sequential engine
// would have had at that event — without touching the shared estimator.
func (e *Engine) settleBoundFor(sh *shim) vtime.Duration {
	if !sh.lane.InWindow() {
		return e.est.bound()
	}
	at, seq := sh.lane.CurAt(), sh.lane.CurSeq()
	// Last schedule step at or before the executing event (inclusive: an
	// arrival's own observation precedes any bound read in the same
	// event). Schedule seqs were assigned before the window opened, so a
	// provisional executing seq correctly sorts after all of them.
	lo, hi := 0, len(e.winSched)
	for lo < hi {
		mid := (lo + hi) / 2
		st := &e.winSched[mid]
		if st.at < at || (st.at == at && st.seq <= seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return e.winBase
	}
	return e.winSched[lo-1].bound
}

// BeginWindow implements netsim.WindowObserver: before a parallel window
// opens, simulate the window's estimator observations — every scheduled
// app delivery, in execution order — on a value copy and record the bound
// after each, giving in-window settleBoundFor reads an exact, read-only
// answer. The margin is a pure function of the arrival time and the
// message's ordering key, so the simulation is exact, not approximate.
func (e *Engine) BeginWindow(delivers []netsim.WinDeliver) {
	e.winSched = e.winSched[:0]
	sim := *e.est
	e.winBase = sim.bound()
	for _, d := range delivers {
		k := ordering.KeyOf(d.Msg)
		pred := vtime.GroupStart(k.Group, vtime.BeaconInterval).Add(k.Delay)
		margin := d.At.Sub(pred)
		sim.observe(d.At, margin)
		e.winSched = append(e.winSched, estStep{at: d.At, seq: d.Seq, margin: margin, bound: sim.bound()})
	}
}

// EndWindow replays the window's observations into the real estimator at
// the commit barrier, in the same order the simulation consumed them.
func (e *Engine) EndWindow() {
	for i := range e.winSched {
		e.est.observe(e.winSched[i].at, e.winSched[i].margin)
	}
	e.winSched = e.winSched[:0]
}

// Sim exposes the underlying simulator (experiments read traffic stats).
func (e *Engine) Sim() *netsim.Sim { return e.sim }

// App returns node n's application.
func (e *Engine) App(n msg.NodeID) api.Application { return e.shims[n].app }

// Stats returns a copy of the engine counters: the driver-only counters
// plus every shim's speculation counters and the route-computation cache
// counters aggregated from every capable application (deterministic:
// shims are visited in node order, and every counter is a commutative
// sum, so the totals are bit-identical across shard counts).
func (e *Engine) Stats() Stats {
	st := e.stats
	for _, sh := range e.shims {
		st.add(&sh.stats)
		if rc, ok := sh.app.(api.RecomputeCached); ok {
			cs := rc.RouteCacheStats()
			st.SPFCacheHits += cs.Hits
			st.SPFCacheMisses += cs.Misses
			st.RecomputeSkipped += cs.Skipped
		}
	}
	return st
}

// Recording returns the partial recording (nil unless EngineSpec.Record).
// Surviving message-loss events are flushed into it first, and the
// replay envelope (chain bound, executed group count) is stamped.
func (e *Engine) Recording() *record.Recording {
	if e.rec == nil {
		return nil
	}
	e.flushDrops()
	e.rec.ChainBound = e.chainBound
	e.rec.ProcEstimate = e.procEstimate()
	e.rec.Groups = vtime.GroupOf(e.scheduledThrough, vtime.BeaconInterval)
	return e.rec
}

// flushDrops moves every shim's surviving drop-log entries into the
// recording as loss events, sorted globally for determinism (drop logs
// are kept per sending shim so workers never touch a shared map).
func (e *Engine) flushDrops() {
	var losses []record.LossEvent
	for _, sh := range e.shims {
		for _, le := range sh.ledger.dropLog {
			losses = append(losses, le)
		}
	}
	if len(losses) == 0 {
		return
	}
	slices.SortFunc(losses, func(a, b record.LossEvent) int {
		if c := e.ord.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return int(a.To) - int(b.To)
	})
	for _, le := range losses {
		e.rec.Events = append(e.rec.Events, record.Event{
			Group:   le.Key.Group,
			Seq:     le.Key.LinkSeq,
			Node:    le.Key.From,
			Kind:    le.ExternalKind(),
			Payload: le,
		})
		e.stats.DropsRecorded++
	}
	for _, sh := range e.shims {
		clear(sh.ledger.dropLog)
	}
}

// Now returns current virtual time.
func (e *Engine) Now() vtime.Time { return e.sim.Now() }

// groupAt returns node n's current beacon group at time t.
func (e *Engine) groupAt(n msg.NodeID, t vtime.Time) uint64 {
	local := t.Add(-e.skew[n])
	if local < 0 {
		local = 0
	}
	return vtime.GroupOf(local, vtime.BeaconInterval)
}

// Run advances the network to virtual time until, firing per-node timer
// batches at every beacon-group boundary along the way.
func (e *Engine) Run(until vtime.Time) {
	e.scheduleGroupTicks(until)
	e.sim.Run(until)
	e.dropSpares()
}

// RunQuiescent processes pending events (without scheduling new group
// ticks) until the queue drains or the event budget is exhausted. It
// reports whether the network quiesced.
func (e *Engine) RunQuiescent(maxEvents int) bool {
	_, ok := e.sim.RunQuiescent(maxEvents)
	e.dropSpares()
	return ok
}

// dropSpares ends the run's lease on every node's spare snapshots (see
// window), so a network at rest holds only its checkpoint stacks.
func (e *Engine) dropSpares() {
	for _, sh := range e.shims {
		sh.win.spares = nil
	}
}

// tickSeg is one Run call's worth of group ticks: groups first..first+n-1
// at every node, labelled from a block of len(shims)·n reserved insertion
// sequences laid out node-major from base — the labels a loop scheduling
// every node's ticks for the segment up front, node by node, would have
// drawn from the counter.
type tickSeg struct {
	base  uint64
	first uint64
	n     uint64
}

// groupTick is a node's timer-batch event (eventq.Caller, so arming it
// allocates nothing). It re-arms itself: only a node's next tick is ever
// queued, which keeps the event queue at the size of the in-flight set
// instead of nodes × groups. seg and group name the queued tick while
// armed, the last one fired otherwise.
type groupTick struct {
	sh    *shim
	seg   int
	group uint64
	armed bool
}

// Fire arms the node's next tick, then runs this one's batch — in that
// order, so the chain survives whatever the handler does. Inside a
// parallel window it reads the segment list the driver wrote before the
// window opened and pushes into its own lane's queue only.
func (t *groupTick) Fire() {
	sh, group := t.sh, t.group
	segs := sh.e.tickSegs
	switch seg := segs[t.seg]; {
	case group+1 < seg.first+seg.n:
		t.arm(t.seg, group+1)
	case t.seg+1 < len(segs):
		t.arm(t.seg+1, segs[t.seg+1].first)
	default:
		t.armed = false // Run re-arms the node when it appends a segment
	}
	sh.onTimerBatch(group)
}

// arm queues the node's tick for group of segment seg at the group
// boundary plus beacon skew, under its reserved sequence.
func (t *groupTick) arm(seg int, group uint64) {
	sh := t.sh
	e := sh.e
	sg := e.tickSegs[seg]
	t.seg, t.group, t.armed = seg, group, true
	at := vtime.GroupStart(group, vtime.BeaconInterval).Add(e.skew[sh.id])
	sh.lane.ScheduleCallSeq(at, sg.base+uint64(sh.id)*sg.n+(group-sg.first), t)
}

// scheduleGroupTicks extends every node's timer-batch schedule over the
// group boundaries in (scheduledThrough, until]. The schedule is keyed on
// the boundary, not the skewed fire time, so every node executes exactly
// the same set of groups — which is what the recording promises the
// debugging network (Recording.Groups); a tick whose skewed fire time falls
// past until stays queued for a later Run or RunQuiescent. The unmodified
// baseline turns the apps' timer wheels on the same boundaries, directly.
//
// Nothing but each idle node's first tick is queued here. Every tick's
// (at, seq) label is fixed now — the whole block of sequences is reserved,
// and a tick's label is a function of (segment, node, group) — so when a
// tick is pushed cannot move the execution order, and each tick pushes its
// successor as it fires (groupTick.Fire). A node still working through an
// earlier segment chains into this one by itself. A late push also clamps
// its fire time against a later clock, to the same result: a node's ticks
// fire in group order, so the clock a tick reads when it arms its successor
// can be past the successor's fire time only if the clock at the
// successor's Run call already was — and then both clamp to that Run's now.
func (e *Engine) scheduleGroupTicks(until vtime.Time) {
	const iv = vtime.BeaconInterval
	first := vtime.GroupOf(e.scheduledThrough, iv) + 1
	if until > e.scheduledThrough {
		e.scheduledThrough = until
	}
	if vtime.GroupStart(first, iv) > until {
		return
	}
	n := vtime.GroupOf(until, iv) - first + 1
	seg := len(e.tickSegs)
	e.tickSegs = append(e.tickSegs, tickSeg{
		base:  e.sim.ReserveSeq(uint64(len(e.shims)) * n),
		first: first,
		n:     n,
	})
	for _, sh := range e.shims {
		if !sh.tick.armed {
			sh.tick.arm(seg, first)
		}
	}
}

// InjectExternal applies an external event at node n: it is recorded,
// entered into the node's history window (class External) and delivered to
// the application — or rolled back and replayed like any other entry if
// late messages later displace it.
func (e *Engine) InjectExternal(n msg.NodeID, ev api.ExternalEvent) {
	sh := e.shims[n]
	if sh.crashed {
		// A crashed node observes nothing: the event is neither recorded
		// nor delivered (it never reached the process), only counted.
		sh.stats.QuarantinedDrops++
		return
	}
	now := e.sim.Now()
	group := e.groupAt(n, now)
	// The event's offset from the group boundary anchors the d_i of the
	// chains it starts; it is part of the partial recording so replay
	// regenerates identical annotations.
	offset := now.Sub(vtime.GroupStart(group, vtime.BeaconInterval))
	if offset < 0 {
		offset = 0
	}
	if group != sh.extGroup {
		sh.extGroup, sh.extNext = group, 0
	}
	seq := sh.extNext
	sh.extNext++
	if e.rec != nil {
		e.rec.Events = append(e.rec.Events, record.Event{Group: group, Seq: seq, Node: n, Offset: offset, Kind: ev.ExternalKind(), Payload: ev})
	}
	e.stats.ExternalEvents++
	key := ordering.ExternalKey(group, n, seq)
	if e.baseline {
		sh.deliverBare(key, nil, ev, offset)
		return
	}
	sh.onEntry(&history.Entry{
		Key:       key,
		Ext:       &history.External{Event: ev, Offset: offset, Seq: seq},
		ArrivedAt: now,
	})
}

// InjectLinkChange flips the physical link state and delivers LinkChange
// external events to both endpoints.
func (e *Engine) InjectLinkChange(a, b int, up bool) error {
	if err := e.sim.SetLinkState(a, b, up); err != nil {
		return err
	}
	e.InjectExternal(msg.NodeID(a), api.LinkChange{Peer: msg.NodeID(b), Up: up})
	e.InjectExternal(msg.NodeID(b), api.LinkChange{Peer: msg.NodeID(a), Up: up})
	return nil
}

// CommittedKeys returns node n's committed delivery sequence: everything
// already settled plus the live window (requires EngineSpec.DeliveryLog for
// the settled prefix).
func (e *Engine) CommittedKeys(n msg.NodeID) []ordering.Key {
	sh := e.shims[n]
	out := append([]ordering.Key(nil), sh.settle.log...)
	return append(out, sh.win.Keys()...)
}

// onInFlightDrop records app messages lost in flight so the loss can be
// replayed (paper footnote 4). The sending shim's record is marked so a
// later rollback retracts the loss event instead of sending an anti.
// Delivery-time drops only ever execute on the driver (the sharded
// runtime serializes doomed arrivals), so writing the sender's shim state
// from here is safe in both modes.
func (e *Engine) onInFlightDrop(m *msg.Message) {
	if m.Kind != msg.KindApp || e.baseline {
		return
	}
	e.shims[m.From].ledger.dropped(m)
}
