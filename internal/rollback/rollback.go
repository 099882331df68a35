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
// # Layers
//
// A node's shim (shim.go) composes five layers, each a value field of the
// shim that owns its fields and methods and holds no pointer to the shim or
// the engine: config values are copied in at construction, counters go to
// the shim's Stats. Each makes one guarantee; its type says why it holds.
//
//	layer      file       owns                                       guarantee
//	lookahead  defer.go   links, nbr                                 releases depend only on the node's own delivery stream
//	pending    defer.go   buf, capLB, flushH, flushAt, arrSeq,       a hold moves when an entry enters the window, never where
//	                      directSeq
//	window     window.go  Window, ckpts, japp, serial, hw            restoring ckpts[i] puts back the state entry i was delivered in
//	ledger     ledger.go  sent, recFree, recSlab, replayPool,        after a replay the wire carries what the replay produced,
//	                      replayFresh, dropLog                       with the annotations the first pass gave it
//	settle     shim.go    last, lastKey, lastRank, has, log          entries retire once, in order; stragglers are counted
//
// Per arrival the shim calls them in one fixed order:
//
//	estimator feed → quarantine guard → lookahead observe → pending decide →
//	window insert / deliver / undo / replay → ledger adopt / cancel → settle
//
// onEntry says why the estimator feed precedes the guard, and the shim
// type why Config.Shards can run the same shims inside parallel windows
// with bit-identical results (TestShardGolden).
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
	"defined/internal/trace"
	"defined/internal/vtime"
)

// Config tunes the engine.
type Config struct {
	// Ordering is the pseudorandom ordering function; defaults to
	// ordering.Optimized() (OO).
	Ordering ordering.Func
	// Strategy selects checkpoint timing and rollback copy mode;
	// defaults to checkpoint.Default (TM/MI). To run the zero-valued
	// TF/FK strategy explicitly, also set StrategySet.
	Strategy checkpoint.Strategy
	// StrategySet marks the zero-valued Strategy (TF/FK) as an explicit
	// choice rather than "use the default".
	StrategySet bool
	// Baseline disables the shim entirely — the unmodified-"XORP"
	// series of the evaluation: no ordering, no checkpoints, no
	// rollbacks, no determinism.
	Baseline bool
	// BeaconInterval is the timestep width; defaults to
	// vtime.BeaconInterval (250 ms).
	BeaconInterval vtime.Duration
	// ChainBound caps causal chain length within one timestep; longer
	// chains roll into the next group (paper §2.2). Default 64.
	ChainBound int
	// SettleAfter is how long a history entry lives before it retires.
	// Zero selects the adaptive bound: a per-engine estimator tracks the
	// observed straggler margin (arrival lateness versus the d_i
	// prediction over a trailing horizon) and sets the bound to a
	// propagation-sweep floor plus a multiple of that margin — shrinking
	// live windows, checkpoint stacks and journals on quiet topologies,
	// widening under churn. Set it explicitly to pin a static bound
	// (StaticSettle(g) reproduces the paper's footnote-3 rule).
	SettleAfter vtime.Duration
	// DeferSlack tunes deterministic arrival deferral, the rollback-
	// avoidance fast path: a message whose ordering-key Delay exceeds its
	// predecessor's by a gap smaller than DeferSlack — the arrival d_i
	// predicts may still have predecessors in flight — is held in a
	// per-shim pending buffer for the gap's complement (DeferSlack − gap)
	// and delivered on an eventq re-schedule instead of immediately.
	// Predecessors land during the hold and the batch flushes in key
	// order, replacing deliver-then-rollback cycles with one ordered
	// delivery. Zero selects the default (8 ms); negative disables
	// deferral (the pre-deferral dynamics the figure experiments pin).
	// Committed orders are bit-identical either way (Theorem 1).
	DeferSlack vtime.Duration
	// DeferMax caps how long any single arrival may be held, including
	// waits inherited by queuing behind held predecessors (it bounds the
	// convergence-latency cost of a hold chain). Zero selects the
	// default (100 ms).
	DeferMax vtime.Duration
	// Seed drives the simulator's jitter stream.
	Seed uint64
	// JitterScale scales link jitter (1.0 default).
	JitterScale float64
	// DropProb injects app-message loss: each directed link draws
	// per-packet from its own counter-seeded hash stream (netsim's wire
	// fate), so loss composes with Shards and with fault plans — the draw
	// for a packet depends only on (seed, link direction, wire sequence),
	// never on global send interleavings.
	DropProb float64
	// DupProb injects app-message duplication from the same per-link
	// streams: a duplicated packet is enqueued twice at the sender (the
	// copy trails the original on the FIFO link) and the receiver shim
	// drops the second arrival as a window duplicate.
	DupProb float64
	// NoMessagePool disables refcounted wire-message pooling: senders
	// heap-allocate unmanaged messages and every Retain/Release is a
	// no-op. The pre-refcount behaviour, kept selectable so golden tests
	// can prove the lifecycle is observationally invisible.
	NoMessagePool bool
	// NoRouteCache disables the daemons' epoch-keyed route-computation
	// cache (api.RecomputeCached): every recompute runs the real
	// computation, the pre-cache behaviour. Kept selectable so golden
	// tests can prove the cache is observationally invisible — committed
	// orders, stats and routing tables are bit-identical either way.
	NoRouteCache bool
	// PoisonMessages enables the message pool's debug poison mode:
	// released messages are scribbled and quarantined so any
	// use-after-release is deterministic — stale reads observe the
	// sentinel, stale retain/release/check calls tally in the pool's
	// Violations counter — instead of silently aliasing a recycled
	// struct. Implies the refcount lifecycle; ignored with NoMessagePool.
	PoisonMessages bool
	// Shards runs the engine's simulator on the sharded parallel runtime
	// with the given number of per-core shards (0 or 1 = sequential).
	// Committed orders, stats and routing tables are bit-identical for any
	// value — sharding changes wall-clock time only. Ignored (sequential)
	// for Baseline runs. Loss and duplication compose with sharding: the
	// per-link wire-fate streams advance in lane-local send order.
	Shards int
	// Lookahead enables the per-link lookahead layer in both of its
	// consumers: the simulator's sharded runtime widens parallel windows
	// to per-directed-link horizons (netsim.Config.Lookahead), and the
	// deferral layer adds frontier coverage on top of the heuristic
	// DeferSlack gap rule — an arrival is held while any in-link's
	// promise (the d_i prediction of that link's latest arrival; see
	// lookahead in defer.go) still trails the arrival's own prediction,
	// releasing the moment a covering arrival lands or the lagging links
	// go conclusively idle. Both consumers move only speculation dynamics
	// and barrier placement: committed orders, Stats counters other than
	// the speculation set, and routing tables are bit-identical
	// lookahead-on vs off (Theorem 1; pinned by TestLookaheadGolden).
	// The exact hold requires deferral (d_i-monotone keys); with deferral
	// disabled only the window widening applies. Off by default.
	Lookahead bool
	// Record, when true, captures the partial recording of external
	// events (and message-loss events) for later replay.
	Record bool
	// LogDeliveries retains each node's committed delivery sequence for
	// determinism verification (tests and experiments).
	LogDeliveries bool
}

func (c *Config) fillDefaults() {
	if c.Ordering == nil {
		c.Ordering = ordering.Optimized()
	}
	if c.Strategy == (checkpoint.Strategy{}) && !c.StrategySet {
		c.Strategy = checkpoint.Default
	}
	if c.BeaconInterval <= 0 {
		c.BeaconInterval = vtime.BeaconInterval
	}
	if c.ChainBound <= 0 {
		c.ChainBound = 64
	}
	if c.JitterScale == 0 {
		c.JitterScale = 1.0
	}
	if c.DeferSlack == 0 {
		c.DeferSlack = defaultDeferSlack
	}
	if c.DeferMax <= 0 {
		c.DeferMax = defaultDeferMax
	}
}

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
	ReflectFallbacks uint64 // lazy-cancellation payload compares that fell back to reflection

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

	// Per-link lookahead counters (PR 7), live only with Config.Lookahead.
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
// Config.Baseline is set).
type Engine struct {
	G   *topology.Graph
	cfg Config

	sim     *netsim.Sim
	cost    checkpoint.CostModel
	shims   []*shim
	rec     *record.Recording
	stats   Stats // driver-only counters; speculation counters live per shim
	skew    []vtime.Duration
	deferOn bool
	lookOn  bool             // exact per-link holds (Lookahead && deferOn)
	est     *settleEstimator // nil when Config.SettleAfter pins a static bound

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
// (len(apps) == g.N). Applications are initialized with their neighbor
// sets; link cost is derived from propagation delay.
func New(g *topology.Graph, apps []api.Application, cfg Config) *Engine {
	if len(apps) != g.N {
		panic(fmt.Sprintf("rollback: %d apps for %d nodes", len(apps), g.N))
	}
	cfg.fillDefaults()
	e := &Engine{
		G:    g,
		cfg:  cfg,
		cost: checkpoint.ModelFor(cfg.Strategy),
		skew: make([]vtime.Duration, g.N),
	}
	if cfg.Baseline {
		e.cost = checkpoint.Baseline()
	}
	// Deferral needs d_i-monotone keys (the gap rule reads Delay off
	// key-adjacent entries): it keys off the same delay-ordering marker
	// DEFINED-LS's conservative replay uses. Under a chain-hash ordering
	// like RO the gap is meaningless and holds would only add latency.
	_, delayOrdered := e.cfg.Ordering.(interface{ LSLookahead() bool })
	e.deferOn = !cfg.Baseline && e.cfg.DeferSlack > 0 && delayOrdered
	// The exact hold reasons about pred(k) = group start + d_i, so it needs
	// the same delay-ordered keys the gap rule does; without deferral only
	// the simulator-side window widening remains.
	e.lookOn = e.deferOn && cfg.Lookahead
	if cfg.SettleAfter <= 0 {
		iv := e.cfg.BeaconInterval
		e.est = newSettleEstimator(iv, settleFloor(g, iv), 2*staticSettle(g, iv))
	}
	shards := cfg.Shards
	if cfg.Baseline {
		shards = 0 // baseline has no shim layer to shard meaningfully
	}
	e.sim = netsim.New(g, netsim.Config{
		Seed:        cfg.Seed,
		JitterScale: cfg.JitterScale,
		DropProb:    cfg.DropProb,
		DupProb:     cfg.DupProb,
		Shards:      shards,
		Lookahead:   cfg.Lookahead && !cfg.Baseline,
	})
	if cfg.PoisonMessages && !cfg.NoMessagePool {
		e.sim.SetPoison(true)
	}
	if e.sim.Sharded() && e.est != nil {
		e.sim.SetWindowObserver(e)
	}
	if cfg.Record {
		e.rec = &record.Recording{
			Topology:       g.Name,
			Ordering:       e.cfg.Ordering.Name(),
			Seed:           cfg.Seed,
			BeaconInterval: e.cfg.BeaconInterval,
		}
	}
	e.computeSkew()
	budget := e.cfg.DeferMax
	if e.lookOn {
		budget *= lookBudgetMult
	}
	e.shims = make([]*shim, g.N)
	for i := 0; i < g.N; i++ {
		n := msg.NodeID(i)
		sh := &shim{e: e, id: n, lane: e.sim.LaneFor(n), app: apps[i]}
		sender := annotate.NewSender(n, g, e.cfg.ChainBound, e.procEstimate())
		if !cfg.NoMessagePool {
			// Wire messages come refcounted from the node's lane pool (the
			// engine-wide pool in sequential mode); the sentRec (or the
			// baseline send closure) owns the reference Materialize returns.
			sender.Pool = sh.lane.Pool()
		}
		if e.lookOn {
			sh.look = newLookahead(g, i, e.procEstimate(), e.cfg.DeferSlack, e.cfg.BeaconInterval)
		}
		sh.pend = pending{cmp: e.cfg.Ordering, slack: e.cfg.DeferSlack, max: e.cfg.DeferMax, budget: budget,
			lane: sh.lane, stats: &sh.stats, flushFn: sh.onFlush}
		sh.win = window{Window: history.New(e.cfg.Ordering), app: apps[i], sender: sender, stats: &sh.stats}
		sh.ledger = ledger{id: n, lane: sh.lane, sender: sender, stats: &sh.stats, dropLog: map[msg.ID]record.LossEvent{}}
		sh.settle = settle{cmp: e.cfg.Ordering, iv: e.cfg.BeaconInterval, logging: cfg.LogDeliveries, stats: &sh.stats}
		sh.tick.sh = sh
		e.shims[i] = sh
		var neighbors []api.Neighbor
		for _, nb := range g.Neighbors(i) {
			l, _ := g.LinkBetween(i, nb)
			neighbors = append(neighbors, api.Neighbor{ID: msg.NodeID(nb), Cost: api.LinkCost(l.Delay)})
		}
		// The epoch-keyed route-computation cache is on by default inside
		// capable applications; an opted-out run disables it before Init
		// (and so before any computation) to reproduce the exact uncached
		// behaviour.
		if cfg.NoRouteCache {
			if rc, ok := apps[i].(api.RecomputeCached); ok {
				rc.SetRouteCaching(false)
			}
		}
		apps[i].Init(n, neighbors)
		// MI strategy + a journal-capable application = real undo-journal
		// checkpointing: marks instead of clones. Enabled only after Init
		// so boot-time mutations (which precede every checkpoint) are
		// never recorded. Apps without the capability fall back to clones.
		if !cfg.Baseline && e.cfg.Strategy.Mode == checkpoint.MI {
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
// Config.SettleAfter to this value pins the pre-adaptive behaviour.
func StaticSettle(g *topology.Graph) vtime.Duration {
	return staticSettle(g, vtime.BeaconInterval)
}

// staticSettle is StaticSettle for a configured beacon interval — the
// adaptive estimator's ceiling must scale with the same interval as its
// floor, or a long interval would invert them.
func staticSettle(g *topology.Graph, beacon vtime.Duration) vtime.Duration {
	maxProp := g.MaxPropagation()
	// Jitter is a small fraction of delay; 4σ over the diameter is
	// approximated by 40% headroom on the propagation bound.
	bound := maxProp + maxProp*2/5
	return 2*bound + beacon
}

// settleFloor is the adaptive bound's minimum: one jitter-headroomed
// propagation sweep plus a beacon interval. The second propagation sweep
// of the static rule is replaced by the estimator's margin term, which is
// what lets quiet networks retire history (and compact journals) roughly
// twice as fast.
func settleFloor(g *topology.Graph, beacon vtime.Duration) vtime.Duration {
	maxProp := g.MaxPropagation()
	return maxProp + maxProp*2/5 + beacon
}

// settleBoundFor returns the retirement bound as shim sh sees it: the
// pinned Config.SettleAfter, or the adaptive estimator's value. Outside
// parallel windows it reads the live estimator; inside one it reads the
// precomputed window schedule at the shim's current (at, seq) execution
// point, so every shim observes exactly the bound the sequential engine
// would have had at that event — without touching the shared estimator.
func (e *Engine) settleBoundFor(sh *shim) vtime.Duration {
	if e.est == nil {
		return e.cfg.SettleAfter
	}
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
	iv := e.cfg.BeaconInterval
	for _, d := range delivers {
		k := ordering.KeyOf(d.Msg)
		pred := vtime.GroupStart(k.Group, iv).Add(k.Delay)
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

// beaconLeader is the node whose beacons define the groups.
const beaconLeader = 0

// computeSkew sets each node's beacon-propagation skew: the shortest-path
// delay from the beacon leader. Group numbers at a node lag the leader's
// wall group by this skew, modeling beacon propagation (paper §2.2).
func (e *Engine) computeSkew() {
	d := e.G.ShortestDelays(beaconLeader)
	for i, v := range d {
		if v < 0 {
			v = 0 // unreachable from leader: no beacons; degrade gracefully
		}
		e.skew[i] = v
	}
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

// Recording returns the partial recording (nil unless Config.Record).
// Surviving message-loss events are flushed into it first, and the
// replay envelope (chain bound, executed group count) is stamped.
func (e *Engine) Recording() *record.Recording {
	if e.rec == nil {
		return nil
	}
	e.flushDrops()
	e.rec.ChainBound = e.cfg.ChainBound
	e.rec.ProcEstimate = e.procEstimate()
	e.rec.Groups = vtime.GroupOf(e.scheduledThrough, e.cfg.BeaconInterval)
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
		if c := e.cfg.Ordering.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return int(a.To) - int(b.To)
	})
	for _, le := range losses {
		e.rec.Append(record.Event{
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
	return vtime.GroupOf(local, e.cfg.BeaconInterval)
}

// Run advances the network to virtual time until, firing per-node timer
// batches at every beacon-group boundary along the way.
func (e *Engine) Run(until vtime.Time) {
	e.scheduleGroupTicks(until)
	e.sim.Run(until)
}

// RunQuiescent processes pending events (without scheduling new group
// ticks) until the queue drains or the event budget is exhausted. It
// reports whether the network quiesced.
func (e *Engine) RunQuiescent(maxEvents int) bool {
	_, ok := e.sim.RunQuiescent(maxEvents)
	return ok
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
	at := vtime.GroupStart(group, e.cfg.BeaconInterval).Add(e.skew[sh.id])
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
	iv := e.cfg.BeaconInterval
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
	offset := now.Sub(vtime.GroupStart(group, e.cfg.BeaconInterval))
	if offset < 0 {
		offset = 0
	}
	if group != sh.extGroup {
		sh.extGroup, sh.extNext = group, 0
	}
	seq := sh.extNext
	sh.extNext++
	if e.rec != nil {
		e.rec.Append(record.Event{Group: group, Seq: seq, Node: n, Offset: offset, Kind: ev.ExternalKind(), Payload: ev})
	}
	e.stats.ExternalEvents++
	if e.cfg.Baseline {
		sh.sendBaseline(sh.app.HandleExternal(ev), msg.Annotation{}, true, group, offset)
		return
	}
	sh.onEntry(&history.Entry{
		Key:       ordering.ExternalKey(group, n, seq),
		Ext:       &history.External{Event: ev, Offset: offset},
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

// InjectTrace applies a trace event.
func (e *Engine) InjectTrace(ev trace.Event) error {
	return e.InjectLinkChange(ev.A, ev.B, ev.Type == trace.LinkUp)
}

// CommittedKeys returns node n's committed delivery sequence: everything
// already settled plus the live window (requires Config.LogDeliveries for
// the settled prefix).
func (e *Engine) CommittedKeys(n msg.NodeID) []ordering.Key {
	sh := e.shims[n]
	out := append([]ordering.Key(nil), sh.settle.log...)
	return append(out, sh.win.Keys()...)
}

// WindowLen exposes node n's live history window size (tests).
func (e *Engine) WindowLen(n msg.NodeID) int { return e.shims[n].win.Len() }

// onInFlightDrop records app messages lost in flight so the loss can be
// replayed (paper footnote 4). The sending shim's record is marked so a
// later rollback retracts the loss event instead of sending an anti.
// Delivery-time drops only ever execute on the driver (the sharded
// runtime serializes doomed arrivals), so writing the sender's shim state
// from here is safe in both modes.
func (e *Engine) onInFlightDrop(m *msg.Message) {
	if m.Kind != msg.KindApp || e.cfg.Baseline {
		return
	}
	e.shims[m.From].ledger.dropped(m)
}
