package rollback

import (
	"slices"
	"testing"

	"defined/internal/annotate"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Unit tests for the shim's layers, each built alone — no Engine. The
// pending buffer's and the lookahead bank's are TestPushPendingMatchesReference
// and TestLookaheadPromiseAntiResetAndIdle.

// The window checkpoints before every delivery, under FK by snapshot and
// under MI by journal marks, and undo restores both the application state
// and the sender's counters to the checkpoint before the undone position;
// serials keep increasing with window position. An FK undo hands the
// stacked snapshot over uncopied, and the application mutating it leaves
// the checkpoints still on the stack as they were.
func TestWindowUndoRestoresCheckpoint(t *testing.T) {
	for _, mode := range []tallyMode{tallyFK, tallyClone, tallyMI} {
		mi := mode == tallyMI
		t.Run(tallyModes[mode], func(t *testing.T) {
			w, app := newTallyWindow(mode)
			var want []tallySnap
			for i := range 3 {
				pos, dup := w.insert(cellOf(mkMsg(vtime.Duration(10*(i+1))*vtime.Millisecond, uint64(i+1), i), 0))
				if dup || pos != i {
					t.Fatalf("arrival %d: pos %d dup %v", i, pos, dup)
				}
				want = append(want, snapTally(w, app))
				deliverTally(w, app, pos)
				if s := w.At(pos).Serial; s != uint64(i+1) {
					t.Fatalf("arrival %d: serial %d", i, s)
				}
			}
			if _, dup := w.insert(cellOf(mkMsg(20*vtime.Millisecond, 2, 1), 0)); !dup || w.stats.Duplicates != 1 {
				t.Fatalf("duplicate arrival: dup %v, Duplicates %d", dup, w.stats.Duplicates)
			}
			var handed api.State
			if !mi {
				handed = (*w.snaps.At(2)).app
			}
			if first := w.undo(2); first != 3 {
				t.Fatalf("first undone serial = %d, want 3", first)
			}
			if got := snapTally(w, app); !got.equal(want[2]) {
				t.Fatalf("state after undo(2) = %+v, want %+v", got, want[2])
			}
			if !mi && app.State() != handed {
				t.Fatal("undo cloned the snapshot instead of handing it over")
			}
			app.add(1, 100) // writes the adopted snapshot's slots in place under FK
			if first := w.undo(1); first != 2 {
				t.Fatalf("first undone serial = %d, want 2", first)
			}
			if got := snapTally(w, app); !got.equal(want[1]) {
				t.Fatalf("state after undo(1) = %+v, want checkpoint 1 exactly, %+v", got, want[1])
			}
			if w.stats.RolledBack != 3 || w.depth() != 1 || w.hw != 3 {
				t.Fatalf("RolledBack %d, %d checkpoints, high water %d", w.stats.RolledBack, w.depth(), w.hw)
			}
			if s := w.stamp(1); s != 4 {
				t.Fatalf("re-delivery serial = %d, want 4", s)
			}
			w.reset()
			if w.Len() != 0 || w.depth() != 0 {
				t.Fatalf("reset left %d entries, %d checkpoints", w.Len(), w.depth())
			}
		})
	}
}

// A replay that regenerates an output re-adopts the original transmission,
// one that drops an output chases it with an anti-message, and a send still
// queued when its cause is undone is cancelled silently. A record is freed
// when its cause retires, not before.
func TestLedgerAdoptsAndRetracts(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(2, 10*ms)
	sim := netsim.New(g, netsim.Config{Seed: 1})
	var wire []msg.Kind
	sim.Attach(1, func(m *msg.Message) { wire = append(wire, m.Kind) })
	st := &Stats{}
	sender := annotate.NewSender(0, g, 64, vtime.BaseProcessing, 0)
	l := ledger{id: 0, lane: sim.LaneFor(0), recs: new(recStore), sender: sender, stats: st, dropLog: map[msg.ID]record.LossEvent{}}
	send := func(cause uint64, replayed bool, payloads ...int) {
		var outs []msg.Out
		for _, p := range payloads {
			outs = append(outs, msg.Out{To: 1, Payload: p})
		}
		l.send(outs, &annotate.Cause{Fresh: true}, ms, cause, replayed)
	}
	var before annotate.Counters
	sender.CopyCounters(&before)
	send(1, false, 1, 2)
	sim.Run(vtime.Time(50 * ms))
	sender.RestoreCounters(before) // as the window's restore would
	l.undo(1)
	if len(l.replayPool) != 2 || l.sent.Len() != 0 {
		t.Fatalf("undo pooled %d records, left %d", len(l.replayPool), l.sent.Len())
	}
	send(2, true, 1)
	l.retract()
	send(3, false, 3)
	l.undo(3)
	l.retract()
	sim.Run(vtime.Time(100 * ms))
	if want := []msg.Kind{msg.KindApp, msg.KindApp, msg.KindAnti}; !slices.Equal(wire, want) {
		t.Fatalf("wire carried %v, want %v", wire, want)
	}
	if st.LazyReuses != 1 || st.AntiMessages != 1 || st.SpuriousRollbacks != 0 {
		t.Fatalf("counters: %+v", *st)
	}
	if l.sent.Len() != 1 || (*l.sent.At(0)).causeSerial != 2 {
		t.Fatalf("live records %d, want the re-adopted one", l.sent.Len())
	}
	l.retire(1)
	if l.sent.Len() != 1 {
		t.Fatal("retiring serial 1 freed the record of delivery 2")
	}
	l.retire(2)
	// The anti-chased record was reused for the cancelled send: two cut,
	// both back on the store's free chain.
	if free := freeRecs(l.recs); l.sent.Len() != 0 || l.recs.cut != 2 || free != 2 {
		t.Fatalf("retire kept %d records; store cut %d, has %d free", l.sent.Len(), l.recs.cut, free)
	}
}

// echoApp answers every message and timer batch with one output to its
// peer, whose payload is boxed once.
type echoApp struct {
	peer msg.NodeID
	out  [1]msg.Out
}

func (a *echoApp) Init(self msg.NodeID, _ []api.Neighbor) {
	a.peer = 1 - self
	a.out[0] = msg.Out{To: a.peer, Payload: any(int(self))}
}
func (a *echoApp) HandleMessage(*msg.Message) []msg.Out       { return a.out[:] }
func (a *echoApp) HandleTimer(vtime.Time) []msg.Out           { return a.out[:] }
func (a *echoApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (a *echoApp) State() api.State                           { return nil }
func (a *echoApp) Restore(api.State)                          {}

// A baseline send allocates nothing once warm: its record comes from the
// lane's store and is the scheduled event, and the wire message from the
// pool. Two echo apps keep one message in flight between them, so every
// delivery is one baseline send.
func TestBaselineSendDoesNotAllocate(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(2, 10*ms)
	e := New(g, []api.Application{&echoApp{}, &echoApp{}}, EngineSpec{Seed: ptr[uint64](1), Baseline: ptr(true)})
	e.shims[0].deliverBare(ordering.TimerKey(1, 0), nil, nil, 0)
	step := func() { e.sim.Run(e.sim.Now().Add(20 * ms)) }
	for range 4 {
		step() // warm the queue, the pool and the record store
	}
	before := e.Stats().Deliveries
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Fatalf("a baseline send allocates %.1f times", got)
	}
	if sent := e.Stats().Deliveries - before; sent < 21 {
		t.Fatalf("%d deliveries in 21 steps: the echo stalled", sent)
	}
	if e.PoolLive() != 1 {
		t.Fatalf("%d pooled messages live, want the one in flight", e.PoolLive())
	}
}

// A settle pass runs at most once per beacon interval, retires the prefix
// that arrived before the cutoff exactly once, and counts an arrival keyed
// before the last retired entry as a violation.
func TestSettleRetiresPrefixOnce(t *testing.T) {
	ms := vtime.Millisecond
	cmp := ordering.Optimized()
	st := &Stats{}
	s := settle{cmp: cmp, logging: true, stats: st}
	w := history.New(cmp)
	for i := range 3 {
		w.Insert(*entryOf(mkMsg(vtime.Duration(10*(i+1))*ms, uint64(i+1), i), vtime.Time(vtime.Duration(i+1)*ms)))
	}
	if !s.due(vtime.Time(vtime.BeaconInterval)) || s.due(vtime.Time(vtime.BeaconInterval+ms)) {
		t.Fatal("settle pass not limited to one per beacon interval")
	}
	keys := w.Keys()
	if n := s.retire(w, vtime.Time(2500*vtime.Microsecond)); n != 2 || !slices.Equal(s.log, keys[:2]) {
		t.Fatalf("retired %d, logged %v", n, s.log)
	}
	w.Retire(2)
	if n := s.retire(w, vtime.Time(2500*vtime.Microsecond)); n != 0 || len(s.log) != 2 {
		t.Fatalf("second pass retired %d, log %d", n, len(s.log))
	}
	for _, d := range []vtime.Duration{15 * ms, 25 * ms} {
		s.check(cellOf(mkMsg(d, 9, 0), 0))
	}
	if st.SettleViolations != 1 {
		t.Fatalf("SettleViolations = %d, want 1 (the arrival keyed before the retired 20 ms entry)", st.SettleViolations)
	}
}

// External events are numbered from 0 within each of a node's groups, and
// the numbering continues across a crash and restart in the same group.
func TestExternalSeqPerGroupAcrossCrash(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(2, 5*ms)
	e := New(g, floodApps(2), EngineSpec{Seed: ptr[uint64](1), Record: ptr(true)})
	iv := vtime.Time(vtime.BeaconInterval)
	for _, at := range []vtime.Time{iv / 4, iv / 2, iv.Add(10 * ms), iv.Add(40 * ms)} {
		e.sim.ScheduleFn(at, func() { e.InjectExternal(0, injectEvent{Value: int(at)}) })
	}
	e.sim.ScheduleFn(iv.Add(20*ms), func() { e.CrashNode(0) })
	e.sim.ScheduleFn(iv.Add(30*ms), func() { e.RestartNode(0) })
	e.Run(2 * iv)
	if !e.RunQuiescent(100_000) {
		t.Fatal("did not quiesce")
	}
	var got [][2]uint64
	for _, ev := range e.Recording().Events {
		if ev.Node == 0 && ev.Kind == (injectEvent{}).ExternalKind() {
			got = append(got, [2]uint64{ev.Group, ev.Seq})
		}
	}
	if want := [][2]uint64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}; !slices.Equal(got, want) {
		t.Fatalf("(group, seq) of node 0's externals = %v, want %v", got, want)
	}
}

// fuseApp is floodApp with a handler that panics on one payload.
type fuseApp struct {
	floodApp
	bad int
}

func (a *fuseApp) HandleMessage(m *msg.Message) []msg.Out {
	if m.Payload.(int) == a.bad {
		panic("injected handler bug")
	}
	return a.floodApp.HandleMessage(m)
}

// A handler panic on the first entry of a multi-entry flush quarantines the
// node and ends the flush: the rest of the batch died with the buffer.
func TestPanicInsideFlushQuarantines(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(2, 10*ms)
	as := floodApps(2)
	as[1] = &fuseApp{floodApp: *newFloodApp(), bad: 101}
	e := New(g, as, EngineSpec{Seed: ptr[uint64](1)})
	sh := e.shims[1]
	for i, d := range []vtime.Duration{10 * ms, 11 * ms, 12 * ms} {
		sh.onEntry(entryOf(mkMsg(d, uint64(i+1), 100+i), e.sim.Now()))
	}
	if sh.win.Len() != 1 || sh.pend.buf.Len() != 2 {
		t.Fatalf("window %d, pending %d: want one delivered, two held", sh.win.Len(), sh.pend.buf.Len())
	}
	e.sim.Run(e.sim.Now().Add(20 * ms))
	if st := e.Stats(); st.PanicCrashes != 1 || !e.Crashed(1) {
		t.Fatalf("panic not quarantined: %+v", st)
	}
	if sh.win.Len() != 0 || sh.pend.buf.Len() != 0 || e.HeldMessages() != 0 {
		t.Fatalf("quarantine left window %d, pending %d, %d held", sh.win.Len(), sh.pend.buf.Len(), e.HeldMessages())
	}
}

// orderApp answers a message with payload 2 by one output to node 2 whose
// payload says whether a message with payload 3 was delivered first; any
// other message it answers with nothing.
type orderApp struct{ st *orderState }

type orderState struct{ sawX bool }

func (s *orderState) Clone() api.State { c := *s; return &c }

func (a *orderApp) Init(msg.NodeID, []api.Neighbor) {}
func (a *orderApp) HandleMessage(m *msg.Message) []msg.Out {
	switch m.Payload.(int) {
	case 3:
		a.st.sawX = true
	case 2:
		if a.st.sawX {
			return []msg.Out{{To: 2, Payload: 1}}
		}
		return []msg.Out{{To: 2, Payload: 0}}
	}
	return nil
}
func (a *orderApp) HandleTimer(vtime.Time) []msg.Out           { return nil }
func (a *orderApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (a *orderApp) State() api.State                           { return a.st }
func (a *orderApp) Restore(st api.State)                       { a.st = st.(*orderState) }

// A send record lives as long as the delivery that caused it can be
// undone, however long ago the send left. On the reference engine with a
// 30 ms settle bound, node 1 delivers E2 at 0 and E1, keyed before it, a
// beacon interval later: the replay re-adopts E2's send, and the settle
// pass then due retires nothing, since E1 arrived inside the bound. X,
// keyed between them, then changes E2's output, so the original send must
// be chased by an anti-message and node 2 must commit the new output
// alone.
func TestUnretiredCauseKeepsItsSends(t *testing.T) {
	ms := vtime.Millisecond
	g := topology.Line(3, 5*ms)
	as := floodApps(3)
	as[1] = &orderApp{st: &orderState{}}
	e := New(g, as, EngineSpec{
		Seed:        ptr[uint64](1),
		Strategy:    "TF/FK",
		Deferral:    ptr(false),
		SettleBound: vtime.Dur(30 * ms),
	})
	sh := e.shims[1]
	sh.onEntry(entryOf(mkMsg(20*ms, 2, 2), e.sim.Now())) // E2
	e.sim.Run(vtime.Time(vtime.BeaconInterval))          // its send fires and lands
	sh.onEntry(entryOf(mkMsg(10*ms, 1, 1), e.sim.Now())) // E1
	if st := e.Stats(); st.LazyReuses != 1 || sh.settle.last != e.sim.Now() || sh.win.Len() != 2 {
		t.Fatalf("E1 did not re-adopt E2's send under a settle pass that kept both: %d re-adopted, pass at %v, window %d",
			st.LazyReuses, sh.settle.last, sh.win.Len())
	}
	if sh.ledger.sent.Len() != 1 {
		t.Fatalf("%d live send records while E2 is in the window, want its one", sh.ledger.sent.Len())
	}
	sh.onEntry(entryOf(mkMsg(15*ms, 3, 3), e.sim.Now())) // X
	if !e.RunQuiescent(10_000) {
		t.Fatal("did not quiesce")
	}
	if st := e.Stats(); st.AntiMessages != 1 {
		t.Fatalf("%d anti-messages, want the one chasing E2's original send", st.AntiMessages)
	}
	if got := as[2].(*floodApp).st.log; !slices.Equal(got, []string{"v1"}) {
		t.Fatalf("node 2 holds %v, want only E2's output after X, [v1]", got)
	}
}
