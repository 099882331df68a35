package rollback

import (
	"fmt"
	"reflect"
	"testing"

	"defined/internal/checkpoint"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// floodApp is a minimal control-plane program for engine tests: values are
// flooded through the network (like LSAs), each node records the order in
// which it first saw each value. Determinism of the recorded order across
// jitter seeds is exactly DEFINED-RB's guarantee.
type floodApp struct {
	self      msg.NodeID
	neighbors []api.Neighbor
	st        *floodState
}

type floodState struct {
	seen map[int]bool
	log  []string
}

func (s *floodState) Clone() api.State {
	ns := &floodState{seen: make(map[int]bool, len(s.seen)), log: append([]string(nil), s.log...)}
	for k, v := range s.seen {
		ns.seen[k] = v
	}
	return ns
}

type injectEvent struct {
	Value int `json:"value"`
}

func (injectEvent) ExternalKind() string { return "flood-inject" }

func newFloodApp() *floodApp {
	return &floodApp{st: &floodState{seen: map[int]bool{}}}
}

func (a *floodApp) Init(self msg.NodeID, neighbors []api.Neighbor) {
	a.self, a.neighbors = self, neighbors
}

func (a *floodApp) flood(v int, except msg.NodeID) []msg.Out {
	var outs []msg.Out
	for _, nb := range a.neighbors {
		if nb.ID != except {
			outs = append(outs, msg.Out{To: nb.ID, Payload: v})
		}
	}
	return outs
}

func (a *floodApp) HandleMessage(m *msg.Message) []msg.Out {
	v := m.Payload.(int)
	if a.st.seen[v] {
		return nil
	}
	a.st.seen[v] = true
	a.st.log = append(a.st.log, fmt.Sprintf("v%d", v))
	return a.flood(v, m.From)
}

func (a *floodApp) HandleTimer(now vtime.Time) []msg.Out {
	return nil
}

func (a *floodApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	switch e := ev.(type) {
	case injectEvent:
		if a.st.seen[e.Value] {
			return nil
		}
		a.st.seen[e.Value] = true
		a.st.log = append(a.st.log, fmt.Sprintf("v%d", e.Value))
		return a.flood(e.Value, msg.None)
	default:
		return nil
	}
}

func (a *floodApp) State() api.State     { return a.st }
func (a *floodApp) Restore(st api.State) { a.st = st.(*floodState) }

// timerApp logs every timer batch it sees interleaved with messages.
type timerApp struct {
	floodApp
}

func (a *timerApp) HandleTimer(now vtime.Time) []msg.Out {
	a.st.log = append(a.st.log, fmt.Sprintf("T%d", vtime.GroupOf(now, vtime.BeaconInterval)))
	return nil
}

func apps(n int, mk func() api.Application) []api.Application {
	out := make([]api.Application, n)
	for i := range out {
		out[i] = mk()
	}
	return out
}

func floodApps(n int) []api.Application {
	return apps(n, func() api.Application { return newFloodApp() })
}

// runScenario floods nVals values from distinct injection nodes at nearly
// the same instant over g, and returns per-node app logs and committed key
// sequences.
func runScenario(t *testing.T, g *topology.Graph, spec EngineSpec, nVals int) ([][]string, [][]ordering.Key, *Engine) {
	t.Helper()
	as := floodApps(g.N)
	e := New(g, as, spec)
	// Inject values at staggered sub-millisecond offsets so their
	// flood waves race each other throughout the network.
	for v := 0; v < nVals; v++ {
		v := v
		node := msg.NodeID((v * 7) % g.N)
		e.sim.ScheduleFn(vtime.Time(vtime.Duration(v)*300*vtime.Microsecond), func() {
			e.InjectExternal(node, injectEvent{Value: v})
		})
	}
	e.Run(vtime.Time(2 * vtime.Second))
	if !e.RunQuiescent(2_000_000) {
		t.Fatal("network did not quiesce (Theorem 2 violated)")
	}
	logs := make([][]string, g.N)
	keys := make([][]ordering.Key, g.N)
	for i := 0; i < g.N; i++ {
		logs[i] = append([]string(nil), as[i].(*floodApp).st.log...)
		keys[i] = e.CommittedKeys(msg.NodeID(i))
	}
	return logs, keys, e
}

func TestFloodReachesEveryNode(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	logs, _, e := runScenario(t, g, EngineSpec{Seed: ptr[uint64](1), DeliveryLog: ptr(true)}, 3)
	for i, log := range logs {
		if len(log) != 3 {
			t.Fatalf("node %d saw %d values, want 3: %v", i, len(log), log)
		}
	}
	if e.Stats().Deliveries == 0 {
		t.Fatal("no deliveries")
	}
}

// TestDeterminismAcrossJitterSeeds is the core DEFINED-RB property: with
// identical external events, the committed delivery order at every node is
// identical regardless of physical timing (jitter seed) — even though the
// arrival orders differ and rollbacks occur.
func TestDeterminismAcrossJitterSeeds(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	var refLogs [][]string
	var refKeys [][]ordering.Key
	sawRollback := false
	for seed := uint64(0); seed < 8; seed++ {
		logs, keys, e := runScenario(t, g, EngineSpec{
			Seed:        &seed,
			JitterScale: ptr(4.0), // aggressive jitter: force misorderings
			DeliveryLog: ptr(true),
		}, 4)
		if e.Stats().Rollbacks > 0 {
			sawRollback = true
		}
		if e.Stats().SettleViolations != 0 {
			t.Fatalf("seed %d: settle violations: %d", seed, e.Stats().SettleViolations)
		}
		if refLogs == nil {
			refLogs, refKeys = logs, keys
			continue
		}
		if !reflect.DeepEqual(refLogs, logs) {
			t.Fatalf("seed %d: application logs diverged\nref: %v\ngot: %v", seed, refLogs, logs)
		}
		if !reflect.DeepEqual(refKeys, keys) {
			t.Fatalf("seed %d: committed key sequences diverged", seed)
		}
	}
	if !sawRollback {
		t.Fatal("no seed triggered a rollback — test is not exercising the mechanism")
	}
}

// TestBaselineIsNondeterministic documents the phenomenon DEFINED removes:
// without the shim, different jitter seeds produce different delivery
// orders.
func TestBaselineIsNondeterministic(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	distinct := map[string]bool{}
	for seed := uint64(0); seed < 10; seed++ {
		as := floodApps(g.N)
		e := New(g, as, EngineSpec{Seed: ptr[uint64](seed), JitterScale: ptr(4.0), Baseline: ptr(true)})
		for v := 0; v < 4; v++ {
			v := v
			node := msg.NodeID((v * 7) % g.N)
			e.sim.ScheduleFn(vtime.Time(vtime.Duration(v)*300*vtime.Microsecond), func() {
				e.InjectExternal(node, injectEvent{Value: v})
			})
		}
		e.Run(vtime.Time(2 * vtime.Second))
		e.RunQuiescent(1_000_000)
		sig := ""
		for i := 0; i < g.N; i++ {
			sig += fmt.Sprint(as[i].(*floodApp).st.log)
		}
		distinct[sig] = true
	}
	if len(distinct) < 2 {
		t.Fatal("baseline produced identical orders across all seeds; jitter too weak to demonstrate nondeterminism")
	}
}

// TestRollbackUnsendsCascade drives the Figure 3 scenario: a node that
// already forwarded messages must tell its neighbors to roll them back.
func TestRollbackUnsendsCascade(t *testing.T) {
	// A --12ms-- B --10ms-- C, D --10ms(high jitter)-- B.
	ms := vtime.Millisecond
	g := topology.FromLinks("cascade", 4, []topology.Link{
		{A: 0, B: 1, Delay: 12 * ms, Jitter: ms / 10},
		{A: 1, B: 2, Delay: 10 * ms, Jitter: ms / 10},
		{A: 3, B: 1, Delay: 10 * ms, Jitter: 8 * ms},
	})
	sawAnti := false
	var ref [][]string
	for seed := uint64(0); seed < 12; seed++ {
		as := floodApps(g.N)
		e := New(g, as, EngineSpec{Seed: ptr[uint64](seed), JitterScale: ptr(1.0), DeliveryLog: ptr(true)})
		// Two injections in the same beacon group: value 1 at A, value
		// 2 at D. Sorted order at B: d(D→B)=10ms < d(A→B)=12ms, so
		// value 2 must commit first everywhere downstream.
		e.sim.ScheduleFn(0, func() { e.InjectExternal(0, injectEvent{Value: 1}) })
		e.sim.ScheduleFn(0, func() { e.InjectExternal(3, injectEvent{Value: 2}) })
		e.Run(vtime.Time(2 * vtime.Second))
		if !e.RunQuiescent(1_000_000) {
			t.Fatal("did not quiesce")
		}
		logs := make([][]string, g.N)
		for i := range logs {
			logs[i] = as[i].(*floodApp).st.log
		}
		// Node B (1) and C (2) must see v2 before v1 in every run.
		if got := logs[1]; len(got) != 2 || got[0] != "v2" || got[1] != "v1" {
			t.Fatalf("seed %d: node B log = %v, want [v2 v1]", seed, got)
		}
		if got := logs[2]; len(got) != 2 || got[0] != "v2" || got[1] != "v1" {
			t.Fatalf("seed %d: node C log = %v, want [v2 v1]", seed, got)
		}
		if ref == nil {
			ref = logs
		} else if !reflect.DeepEqual(ref, logs) {
			t.Fatalf("seed %d: logs diverged: %v vs %v", seed, ref, logs)
		}
		if e.Stats().AntiMessages > 0 {
			sawAnti = true
		}
	}
	if !sawAnti {
		t.Fatal("no seed produced an anti-message cascade; scenario mistuned")
	}
}

// TestTimerBatchesDeterministic verifies timer events interleave with
// messages identically across seeds (paper §3: deterministic timers).
func TestTimerBatchesDeterministic(t *testing.T) {
	g := topology.Line(4, 5*vtime.Millisecond)
	var ref [][]string
	for seed := uint64(0); seed < 6; seed++ {
		as := apps(g.N, func() api.Application { return &timerApp{floodApp: *newFloodApp()} })
		e := New(g, as, EngineSpec{Seed: ptr[uint64](seed), JitterScale: ptr(3.0)})
		// Inject shortly before a group boundary so message waves cross it.
		e.sim.ScheduleFn(vtime.Time(248*vtime.Millisecond), func() {
			e.InjectExternal(0, injectEvent{Value: 7})
		})
		e.Run(vtime.Time(1 * vtime.Second))
		if !e.RunQuiescent(1_000_000) {
			t.Fatal("did not quiesce")
		}
		logs := make([][]string, g.N)
		for i := range logs {
			logs[i] = as[i].(*timerApp).st.log
		}
		if ref == nil {
			ref = logs
			// Sanity: each node must have fired timer batches.
			for i, lg := range logs {
				if len(lg) < 2 {
					t.Fatalf("node %d log too short: %v", i, lg)
				}
			}
			continue
		}
		if !reflect.DeepEqual(ref, logs) {
			t.Fatalf("seed %d: timer interleavings diverged\nref: %v\ngot: %v", seed, ref, logs)
		}
	}
	if want := ref[0][0]; want[0] != 'T' && want != "v7" {
		t.Fatalf("unexpected first log entry %q", want)
	}
}

func TestRecordingCapturesExternals(t *testing.T) {
	g := topology.Line(3, 5*vtime.Millisecond)
	as := floodApps(g.N)
	e := New(g, as, EngineSpec{Seed: ptr[uint64](1), Record: ptr(true)})
	e.sim.ScheduleFn(0, func() { e.InjectExternal(0, injectEvent{Value: 1}) })
	e.sim.ScheduleFn(vtime.Time(300*vtime.Millisecond), func() { e.InjectExternal(2, injectEvent{Value: 2}) })
	e.Run(vtime.Time(1 * vtime.Second))
	e.RunQuiescent(100000)
	rec := e.Recording()
	if rec == nil {
		t.Fatal("recording missing")
	}
	if len(rec.Events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(rec.Events))
	}
	if rec.Events[0].Node != 0 || rec.Events[0].Group != 0 {
		t.Fatalf("event 0 = %+v", rec.Events[0])
	}
	if rec.Events[1].Group == 0 {
		t.Fatal("second event should land in a later group")
	}
	if rec.Ordering != "OO" {
		t.Fatalf("ordering tag = %q", rec.Ordering)
	}
}

func TestLinkChangeRecordedAndApplied(t *testing.T) {
	g := topology.Line(3, 5*vtime.Millisecond)
	as := floodApps(g.N)
	e := New(g, as, EngineSpec{Seed: ptr[uint64](1), Record: ptr(true)})
	e.sim.ScheduleFn(0, func() {
		if err := e.InjectLinkChange(0, 1, false); err != nil {
			t.Errorf("InjectLinkChange: %v", err)
		}
	})
	e.Run(vtime.Time(1 * vtime.Second))
	e.RunQuiescent(100000)
	if e.sim.LinkState(0, 1) {
		t.Fatal("link should be down")
	}
	rec := e.Recording()
	if len(rec.Events) != 2 { // one LinkChange per endpoint
		t.Fatalf("recorded %d events, want 2", len(rec.Events))
	}
	if err := e.InjectLinkChange(0, 2, false); err == nil {
		t.Fatal("missing link must error")
	}
}

func TestChainBoundRollsIntoNextGroup(t *testing.T) {
	// A long line with a tiny chain bound: the flood wave's annotations
	// must hop groups instead of growing unbounded chains.
	g := topology.Line(10, vtime.Millisecond)
	as := floodApps(g.N)
	e := New(g, as, EngineSpec{Seed: ptr[uint64](1), ChainBound: ptr(3), DeliveryLog: ptr(true)})
	e.sim.ScheduleFn(0, func() { e.InjectExternal(0, injectEvent{Value: 1}) })
	e.Run(vtime.Time(1 * vtime.Second))
	if !e.RunQuiescent(1_000_000) {
		t.Fatal("did not quiesce")
	}
	// The far end must still receive the value.
	if lg := as[9].(*floodApp).st.log; len(lg) != 1 || lg[0] != "v1" {
		t.Fatalf("far end log = %v", lg)
	}
	// The nine-hop wave must have rolled over into later groups by the
	// time it reaches the far end (9 hops / bound 3 = at least 2
	// rollovers); chain depth itself is enforced by the annotate.Sender.
	groups := map[uint64]bool{}
	for n := 0; n < g.N; n++ {
		for _, k := range e.CommittedKeys(msg.NodeID(n)) {
			if k.Class == ordering.ClassMessage {
				groups[k.Group] = true
			}
		}
	}
	if len(groups) < 3 {
		t.Fatalf("expected chain to roll across at least 3 groups, got %v", groups)
	}
}

func TestCheckpointStrategiesAllDeterministic(t *testing.T) {
	g := topology.Brite(8, 2, 9)
	var ref [][]string
	for _, strat := range []checkpoint.Strategy{
		{Timing: checkpoint.TF, Mode: checkpoint.FK},
		{Timing: checkpoint.PF, Mode: checkpoint.MI},
		{Timing: checkpoint.TM, Mode: checkpoint.MI},
	} {
		logs, _, e := runScenario(t, g, EngineSpec{Seed: ptr[uint64](3), JitterScale: ptr(3.0), Strategy: strat.String()}, 3)
		for _, sh := range e.shims {
			if sh.win.spares != nil {
				t.Fatalf("strategy %v: node %d kept %d spare snapshots past the run", strat, sh.id, len(sh.win.spares))
			}
		}
		if ref == nil {
			ref = logs
			continue
		}
		if !reflect.DeepEqual(ref, logs) {
			t.Fatalf("strategy %v changed the committed order", strat)
		}
	}
}

func TestRandomOrderingDeterministicButDifferent(t *testing.T) {
	g := topology.Brite(10, 2, 11)
	ro := func(seed uint64) [][]string {
		logs, _, _ := runScenario(t, g, EngineSpec{
			Seed:         &seed,
			Ordering:     "RO",
			OrderingSeed: ptr[uint64](99),
		}, 4)
		return logs
	}
	a, b := ro(1), ro(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RO ordering must still be deterministic across seeds")
	}
}

func TestRandomOrderingCausesMoreRollbacks(t *testing.T) {
	// The heaviest test in the package (two 3-seed sweeps, and RO
	// dynamics roll back a lot): -short bounds it to one seed each so
	// the per-commit CI race job stays fast.
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	g := topology.Brite(20, 2, 13)
	run := func(ord string) uint64 {
		var total uint64
		for seed := uint64(0); seed < seeds; seed++ {
			_, _, e := runScenario(t, g, EngineSpec{Seed: &seed, Ordering: ord, OrderingSeed: ptr[uint64](5)}, 6)
			total += e.Stats().Rollbacks
		}
		return total
	}
	oo := run("OO")
	roTotal := run("RO")
	if roTotal <= oo {
		t.Fatalf("RO (%d rollbacks) should exceed OO (%d) — the paper's Figure 8a effect", roTotal, oo)
	}
}

func TestBaselineStatsStayZero(t *testing.T) {
	g := topology.Line(3, vtime.Millisecond)
	as := floodApps(g.N)
	e := New(g, as, EngineSpec{Seed: ptr[uint64](1), Baseline: ptr(true)})
	e.sim.ScheduleFn(0, func() { e.InjectExternal(0, injectEvent{Value: 1}) })
	e.Run(vtime.Time(1 * vtime.Second))
	e.RunQuiescent(100000)
	st := e.Stats()
	if st.Rollbacks != 0 || st.AntiMessages != 0 {
		t.Fatalf("baseline must never roll back: %+v", st)
	}
	if as[2].(*floodApp).st.log[0] != "v1" {
		t.Fatal("baseline flood failed")
	}
	if e.WindowLen(0) != 0 {
		t.Fatal("baseline must not populate history windows")
	}
}

func TestNewPanicsOnAppCountMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(topology.Line(3, vtime.Millisecond), floodApps(2), EngineSpec{})
}

// TestNewWritesTheOneDefaultTable pins that New resolves the block it is
// given with ResolveEngine's defaults and no others: the zero block and
// its resolved form build the same engine.
func TestNewWritesTheOneDefaultTable(t *testing.T) {
	resolved, err := ResolveEngine(EngineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	g := topology.Brite(12, 2, 4)
	zeroLogs, zeroKeys, ze := runScenario(t, g, EngineSpec{}, 4)
	resLogs, resKeys, re := runScenario(t, g, resolved, 4)
	if !reflect.DeepEqual(zeroLogs, resLogs) || !reflect.DeepEqual(zeroKeys, resKeys) {
		t.Fatal("zero and resolved blocks committed different orders")
	}
	if zs, rs := ze.Stats(), re.Stats(); zs != rs {
		t.Fatalf("stats differ:\nzero:     %+v\nresolved: %+v", zs, rs)
	}
	if ze.Stats().Deferred == 0 || ze.Stats().Rollbacks == 0 {
		t.Fatalf("defaults exercised neither deferral nor rollback: %+v", ze.Stats())
	}
}

// TestNewPanicsOnContradictoryBlock: New panics with ResolveEngine's exact
// error on a block the contradiction table rejects.
func TestNewPanicsOnContradictoryBlock(t *testing.T) {
	spec := EngineSpec{Poison: ptr(true), MessagePool: ptr(false)}
	_, err := ResolveEngine(spec)
	if err == nil {
		t.Fatal("poison without the pool resolved")
	}
	defer func() {
		if got := recover(); got != err.Error() {
			t.Fatalf("panic %v, want %q", got, err)
		}
	}()
	New(topology.Line(3, vtime.Millisecond), floodApps(3), spec)
}

func TestLinkCost(t *testing.T) {
	if api.LinkCost(50*vtime.Microsecond) != 1 {
		t.Fatal("sub-unit delays must cost at least 1")
	}
	if api.LinkCost(vtime.Millisecond) != 10 {
		t.Fatalf("1ms = %d", api.LinkCost(vtime.Millisecond))
	}
}

// TestSentRecordsOrderedByCause pins the invariant the ledger's undo split
// rests on. After every millisecond of a rollback storm (racing flood
// waves under random ordering, eager delivery), at every shim: delivered
// window entries carry strictly increasing serials, the live sent records
// are sorted by the serial of the delivery that caused them, and every
// record whose cause is not older than the window's first serial was
// caused by an entry still in the window. Together those make "the sends
// of the deliveries at window positions >= pos" exactly the tail of
// ledger.sent from the first causeSerial >= that position's serial.
func TestSentRecordsOrderedByCause(t *testing.T) {
	g := topology.Brite(20, 2, 13)
	e := New(g, floodApps(g.N), EngineSpec{Seed: ptr[uint64](1), Ordering: "RO", OrderingSeed: ptr[uint64](5), Deferral: ptr(false)})
	for v := 0; v < 8; v++ {
		node := msg.NodeID((v * 7) % g.N)
		e.sim.ScheduleFn(vtime.Time(vtime.Duration(v)*300*vtime.Microsecond), func() {
			e.InjectExternal(node, injectEvent{Value: v})
		})
	}
	tracked := 0
	for now := vtime.Time(0); now < vtime.Time(vtime.Second); now = now.Add(vtime.Millisecond) {
		e.Run(now)
		for _, sh := range e.shims {
			live := map[uint64]bool{}
			first, last := uint64(0), uint64(0)
			for i := 0; i < sh.win.Len(); i++ {
				s := sh.win.At(i).Serial
				if s == 0 {
					continue
				}
				if s <= last {
					t.Fatalf("t=%v node %d: window serial %d at position %d after %d", now, sh.id, s, i, last)
				}
				if first == 0 {
					first = s
				}
				last, live[s] = s, true
			}
			prev := uint64(0)
			for i := range sh.ledger.sent.Len() {
				rec := *sh.ledger.sent.At(i)
				if rec.causeSerial < prev {
					t.Fatalf("t=%v node %d: sent record caused by %d after one caused by %d", now, sh.id, rec.causeSerial, prev)
				}
				prev = rec.causeSerial
				if first != 0 && rec.causeSerial >= first && !live[rec.causeSerial] {
					t.Fatalf("t=%v node %d: sent record outlived its undone cause %d (window serials %d..%d)",
						now, sh.id, rec.causeSerial, first, last)
				}
				tracked++
			}
		}
	}
	if st := e.Stats(); st.Rollbacks < 100 || st.LazyReuses == 0 || tracked == 0 {
		t.Fatalf("no storm: %d rollbacks, %d re-adopted sends, %d records inspected", st.Rollbacks, st.LazyReuses, tracked)
	}
}

// WindowLen reports node n's live history window size.
func (e *Engine) WindowLen(n msg.NodeID) int { return e.shims[n].win.Len() }
