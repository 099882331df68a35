package rollback

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"weak"

	"defined/internal/annotate"
	"defined/internal/history"
	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// tallyApp is a journaled test application: each message adds its payload
// into one of four slots, recording the old value first. Its state holds a
// slice, so two checkpoints that shared storage would show. Its state is
// api.Recyclable unless cloneOnly is set, when State hands out the same
// state as a cloneOnlyTally, which has Clone only: the window's fallback.
type tallyApp struct {
	st        *tallyState
	j         *journal.Log[tallyUndo]
	cloneOnly bool
}

type tallyState struct{ slots []int }

// cloneOnlyTally is a tallyState without CloneInto.
type cloneOnlyTally tallyState

type tallyUndo struct{ slot, old int }

func (s *tallyState) Clone() api.State { return s.CloneInto(nil) }

func (s *tallyState) CloneInto(dst api.State) api.State {
	d, _ := dst.(*tallyState)
	if d == nil {
		d = new(tallyState)
	}
	d.slots = append(d.slots[:0], s.slots...)
	return d
}

func (s *cloneOnlyTally) Clone() api.State {
	return (*cloneOnlyTally)(&tallyState{slots: slices.Clone(s.slots)})
}

// tallyOf unwraps either kind of tally state.
func tallyOf(st api.State) *tallyState {
	if c, ok := st.(*cloneOnlyTally); ok {
		return (*tallyState)(c)
	}
	return st.(*tallyState)
}

func newTallyApp() *tallyApp {
	a := &tallyApp{st: &tallyState{slots: make([]int, 4)}}
	a.j = journal.New(func(u tallyUndo) { a.st.slots[u.slot] = u.old })
	return a
}

// add writes slot in place, journaled.
func (a *tallyApp) add(slot, v int) {
	a.j.Record(tallyUndo{slot: slot, old: a.st.slots[slot]})
	a.st.slots[slot] += v
}

func (a *tallyApp) Init(msg.NodeID, []api.Neighbor) {}

func (a *tallyApp) HandleMessage(m *msg.Message) []msg.Out {
	v := m.Payload.(int)
	a.add(v%len(a.st.slots), v+1)
	return nil
}

func (a *tallyApp) HandleTimer(vtime.Time) []msg.Out           { return nil }
func (a *tallyApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (a *tallyApp) Restore(st api.State)                       { a.st = tallyOf(st) }
func (a *tallyApp) JournalEnable()                             { a.j.Enable() }
func (a *tallyApp) JournalMark() journal.Mark                  { return a.j.Mark() }
func (a *tallyApp) JournalRewind(m journal.Mark)               { a.j.Rewind(m) }
func (a *tallyApp) JournalCompact(m journal.Mark)              { a.j.Compact(m) }

func (a *tallyApp) State() api.State {
	if a.cloneOnly {
		return (*cloneOnlyTally)(a.st)
	}
	return a.st
}

// tallyMode is how a test window checkpoints.
type tallyMode int

const (
	tallyFK    tallyMode = iota // snapshots copied into spares (CloneInto)
	tallyClone                  // snapshots through the Clone fallback
	tallyMI                     // journal marks
)

var tallyModes = [...]string{"FK", "FK-clone", "MI"}

// newTallyWindow builds node 1's window on Line(3) over a fresh tallyApp,
// checkpointing as mode says, as New sets a node up under FK and MI.
func newTallyWindow(mode tallyMode) (*window, *tallyApp) {
	g := topology.Line(3, 10*vtime.Millisecond)
	app := newTallyApp()
	app.cloneOnly = mode == tallyClone
	w := &window{Window: history.New(ordering.Optimized()), app: app,
		sender: annotate.NewSender(1, g, 64, vtime.BaseProcessing, 0), stats: &Stats{}}
	if mode == tallyMI {
		app.JournalEnable()
		w.sender.JournalEnable()
		w.japp = app
	}
	return w, app
}

// deliverTally stamps window entry i and delivers it: the application
// tallies the payload and the sender prepares one output, to node 0 or 2,
// a fresh chain for every third payload.
func deliverTally(w *window, app *tallyApp, i int) {
	w.stamp(i)
	m := w.At(i).Msg
	app.HandleMessage(m)
	v := m.Payload.(int)
	w.sender.Prepare(msg.Out{To: msg.NodeID(2 * (v % 2))}, &annotate.Cause{Parent: m.Ann, Fresh: v%3 == 0})
}

// tallySnap is a deep copy of everything a checkpoint restores.
type tallySnap struct {
	slots    []int
	counters annotate.Counters
}

func snapTally(w *window, app *tallyApp) tallySnap {
	s := tallySnap{slots: slices.Clone(app.st.slots)}
	w.sender.CopyCounters(&s.counters)
	return s
}

func (s tallySnap) equal(o tallySnap) bool {
	return slices.Equal(s.slots, o.slots) && s.counters.OriginSeq == o.counters.OriginSeq &&
		slices.Equal(s.counters.LinkSeq, o.counters.LinkSeq)
}

// checkSpares fails unless every spare is apart from what the window still
// uses: no spare is a stacked snapshot, and no spare's state is the live
// state or a stacked snapshot's state.
func checkSpares(t *testing.T, what string, w *window) {
	t.Helper()
	used := map[*tallyState]bool{tallyOf(w.app.State()): true}
	stacked := map[*shimState]bool{}
	for i := 0; i < w.snaps.Len(); i++ {
		st := *w.snaps.At(i)
		stacked[st] = true
		used[tallyOf(st.app)] = true
	}
	for _, sp := range w.spares {
		if stacked[sp] {
			t.Fatalf("%s: a spare is still on the stack", what)
		}
		if sp.app != nil && used[tallyOf(sp.app)] {
			t.Fatalf("%s: a spare holds a state in use", what)
		}
	}
}

// Snapshots the stack drops become spares for the rest of the run and no
// longer: undo keeps the snapshots after its position and the one it hands
// over (now carrying the state the application let go of), retire the
// settled ones; none of them stays reachable from the stack, none is the
// live state or a stacked snapshot, and once the run ends (Engine.Run drops
// the spares) none is reachable at all. Under the Clone fallback the handed-over
// snapshot's spare carries no state, since the application promised
// nothing about the one it let go of.
func TestWindowReleasesDroppedStates(t *testing.T) {
	for _, mode := range []tallyMode{tallyFK, tallyClone} {
		t.Run(tallyModes[mode], func(t *testing.T) {
			w, app := newTallyWindow(mode)
			var ws [4]weak.Pointer[tallyState]
			var live weak.Pointer[tallyState]
			func() {
				for i := range ws {
					w.insert(cellOf(mkMsg(vtime.Duration(i+1)*vtime.Millisecond, uint64(i+1), i), 0))
					deliverTally(w, app, i)
					ws[i] = weak.Make(tallyOf((*w.snaps.At(i)).app))
				}
				live = weak.Make(app.st)
			}()
			w.undo(2) // hands snapshot 2 over, drops snapshot 3 and the live state
			if app.st != ws[2].Value() {
				t.Fatal("undo did not hand the stacked snapshot to the application")
			}
			w.retire(1) // settles snapshot 0
			if w.snaps.Len() != 1 || tallyOf((*w.snaps.At(0)).app) != ws[1].Value() {
				t.Fatal("the live snapshot moved")
			}
			if len(w.spares) != 3 {
				t.Fatalf("%d spares, want 3", len(w.spares))
			}
			checkSpares(t, "after undo and retire", w)
			held := 0
			for _, sp := range w.spares {
				if sp.app != nil {
					held++
				}
			}
			if want := map[tallyMode]int{tallyFK: 3, tallyClone: 2}[mode]; held != want {
				t.Fatalf("%d spares hold a state, want %d", held, want)
			}
			w.spares = nil // the run ends
			dropped := []weak.Pointer[tallyState]{ws[0], ws[3], live}
			gone := func() bool {
				for _, p := range dropped {
					if p.Value() != nil {
						return false
					}
				}
				return true
			}
			for i := 0; i < 3 && !gone(); i++ {
				runtime.GC()
			}
			if !gone() {
				t.Fatal("a dropped snapshot is still reachable after the run ended")
			}
			if ws[1].Value() == nil || ws[2].Value() == nil {
				t.Fatal("the stacked or live state was collected")
			}
			runtime.KeepAlive(w)
		})
	}
}

// A warmed FK window checkpoints, rolls back and settles without
// allocating: stamp copies into a spare, undo and retire hand snapshots
// back to the spares.
func TestWindowCycleDoesNotAllocate(t *testing.T) {
	const runs = 50
	for _, mode := range []tallyMode{tallyFK, tallyMI} {
		t.Run(tallyModes[mode], func(t *testing.T) {
			w, app := newTallyWindow(mode)
			ms := make([]*msg.Message, 2*(runs+3))
			for i := range ms {
				ms[i] = mkMsg(vtime.Duration(i+1)*vtime.Microsecond, uint64(i+1), i)
			}
			es := make([]history.Cell, len(ms))
			for i, m := range ms {
				es[i] = *cellOf(m, 0)
			}
			next := 0
			cycle := func() {
				for range 2 {
					pos, _ := w.insert(&es[next])
					next++
					deliverTally(w, app, pos)
				}
				w.undo(0)
				deliverTally(w, app, 0)
				deliverTally(w, app, 1)
				w.retire(2)
			}
			cycle() // warm the buffers and the spares
			if got := testing.AllocsPerRun(runs, cycle); got != 0 {
				t.Fatalf("stamp → undo → retire allocates %.1f times a cycle", got)
			}
		})
	}
}

// FuzzWindowCheckpoints drives three windows in lockstep — FK copying into
// spares, FK through the Clone fallback, and MI — through arrivals (each
// out-of-order one followed by the shim's undo and replay), settlement,
// crashes and run ends. After every step the three hold equal application
// states and sender counters, no spare is in use, and an undo puts back
// exactly the state recorded when its checkpoint was stamped.
func FuzzWindowCheckpoints(f *testing.F) {
	f.Add([]byte{0, 30, 0, 20, 0, 10, 2, 1, 0, 5, 3, 0, 0, 7})               // every arrival early, a settle, a crash
	f.Add([]byte{0, 1, 1, 2, 0, 3, 1, 200, 0, 100, 2, 2, 1, 50, 1, 4, 2, 9}) // in order, then one far back
	f.Add([]byte{0, 9, 0, 8, 3, 1, 0, 7, 0, 6, 2, 1, 0, 5})                  // a crash at a run end, refilled
	f.Fuzz(func(t *testing.T, prog []byte) {
		var ws [3]*window
		var apps [3]*tallyApp
		for mode := range ws {
			ws[mode], apps[mode] = newTallyWindow(tallyMode(mode))
		}
		fk, fkApp := ws[tallyFK], apps[tallyFK]
		var stamped []tallySnap // the state before each live checkpoint's delivery
		seq := uint64(0)
		for op := 0; len(prog) >= 2; op++ {
			kind, a := prog[0]%4, int(prog[1])
			prog = prog[2:]
			switch kind {
			case 0, 1: // an arrival a ms into the group
				seq++
				m := mkMsg(vtime.Duration(a)*vtime.Millisecond, seq, a)
				pos, _ := fk.insert(cellOf(m, 0))
				for mode, w := range ws[1:] {
					if p, _ := w.insert(cellOf(m, 0)); p != pos {
						t.Fatalf("op %d: inserted at %d on FK and %d on %s", op, pos, p, tallyModes[mode+1])
					}
				}
				if pos < len(stamped) {
					for mode, w := range ws {
						w.undo(pos)
						if got := snapTally(w, apps[mode]); !got.equal(stamped[pos]) {
							t.Fatalf("op %d: undo(%d) on %s restored %+v, stamped %+v", op, pos, tallyModes[mode], got, stamped[pos])
						}
					}
					stamped = stamped[:pos]
				}
				for i := pos; i < fk.Len(); i++ {
					stamped = append(stamped, snapTally(fk, fkApp))
					for mode, w := range ws {
						deliverTally(w, apps[mode], i)
					}
				}
			case 2: // settlement retires the oldest entries
				n := a % (len(stamped) + 1)
				for _, w := range ws {
					w.retire(n)
				}
				stamped = stamped[n:]
			case 3: // a crash empties all three; an odd a also ends the run
				for _, w := range ws {
					w.reset()
					if a%2 == 1 {
						w.spares = nil // the run ends
					}
				}
				stamped = nil
			}
			want := snapTally(fk, fkApp)
			for mode, w := range ws {
				if w.depth() != len(stamped) {
					t.Fatalf("op %d: %s depth %d, %d stamped", op, tallyModes[mode], w.depth(), len(stamped))
				}
				if got := snapTally(w, apps[mode]); !got.equal(want) {
					t.Fatalf("op %d: FK holds %+v, %s %+v", op, want, tallyModes[mode], got)
				}
				checkSpares(t, fmt.Sprintf("op %d, %s", op, tallyModes[mode]), w)
			}
		}
	})
}
