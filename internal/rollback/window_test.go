package rollback

import (
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
// slice, so two checkpoints that shared storage would show.
type tallyApp struct {
	st *tallyState
	j  *journal.Log[tallyUndo]
}

type tallyState struct{ slots []int }

type tallyUndo struct{ slot, old int }

func (s *tallyState) Clone() api.State { return &tallyState{slots: slices.Clone(s.slots)} }

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
func (a *tallyApp) State() api.State                           { return a.st }
func (a *tallyApp) Restore(st api.State)                       { a.st = st.(*tallyState) }
func (a *tallyApp) JournalEnable()                             { a.j.Enable() }
func (a *tallyApp) JournalMark() journal.Mark                  { return a.j.Mark() }
func (a *tallyApp) JournalRewind(m journal.Mark)               { a.j.Rewind(m) }
func (a *tallyApp) JournalCompact(m journal.Mark)              { a.j.Compact(m) }

// newTallyWindow builds node 1's window on Line(3) over a fresh tallyApp,
// checkpointing by journal marks when mi is set and by snapshots
// otherwise, as New sets a node up under MI and under FK.
func newTallyWindow(mi bool) (*window, *tallyApp) {
	g := topology.Line(3, 10*vtime.Millisecond)
	app := newTallyApp()
	w := &window{Window: history.New(ordering.Optimized()), app: app,
		sender: annotate.NewSender(1, g, 64, vtime.BaseProcessing, 0), stats: &Stats{}}
	if mi {
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
	return tallySnap{slices.Clone(app.st.slots), w.sender.SnapshotCounters()}
}

func (s tallySnap) equal(o tallySnap) bool {
	return slices.Equal(s.slots, o.slots) && s.counters.OriginSeq == o.counters.OriginSeq &&
		slices.Equal(s.counters.LinkSeq, o.counters.LinkSeq)
}

// No snapshot that undo or retire dropped stays reachable from the stack:
// undo hands the snapshot at its position to the application and drops the
// ones after it, and retire drops the settled ones.
func TestWindowReleasesDroppedStates(t *testing.T) {
	w, app := newTallyWindow(false)
	var ws [4]weak.Pointer[tallyState]
	func() {
		for i := range ws {
			w.insert(entryOf(mkMsg(vtime.Duration(i+1)*vtime.Millisecond, uint64(i+1), i), 0))
			deliverTally(w, app, i)
			ws[i] = weak.Make((*w.snaps.At(i)).app.(*tallyState))
		}
	}()
	w.undo(2) // hands snapshot 2 over, drops snapshot 3
	if app.st != ws[2].Value() {
		t.Fatal("undo did not hand the stacked snapshot to the application")
	}
	app.st = app.st.Clone().(*tallyState) // the application lets go of it
	w.retire(1)                           // settles snapshot 0
	for i := 0; i < 3 && (ws[0].Value() != nil || ws[2].Value() != nil || ws[3].Value() != nil); i++ {
		runtime.GC()
	}
	for _, i := range []int{0, 2, 3} {
		if ws[i].Value() != nil {
			t.Fatalf("dropped snapshot %d is still reachable", i)
		}
	}
	if w.snaps.Len() != 1 || (*w.snaps.At(0)).app != ws[1].Value() {
		t.Fatal("the live snapshot moved")
	}
}

// FuzzWindowCheckpoints drives an FK window and an MI window in lockstep
// through arrivals (each out-of-order one followed by the shim's undo and
// replay), settlement and crashes. After every step the two hold equal
// application states and sender counters, and an undo puts back exactly
// the state recorded when its checkpoint was stamped.
func FuzzWindowCheckpoints(f *testing.F) {
	f.Add([]byte{0, 30, 0, 20, 0, 10, 2, 1, 0, 5, 3, 0, 0, 7})               // every arrival early, a settle, a crash
	f.Add([]byte{0, 1, 1, 2, 0, 3, 1, 200, 0, 100, 2, 2, 1, 50, 1, 4, 2, 9}) // in order, then one far back
	f.Fuzz(func(t *testing.T, prog []byte) {
		fk, fkApp := newTallyWindow(false)
		mi, miApp := newTallyWindow(true)
		ws, apps := [2]*window{fk, mi}, [2]*tallyApp{fkApp, miApp}
		var stamped []tallySnap // the state before each live checkpoint's delivery
		seq := uint64(0)
		for op := 0; len(prog) >= 2; op++ {
			kind, a := prog[0]%4, int(prog[1])
			prog = prog[2:]
			switch kind {
			case 0, 1: // an arrival a ms into the group
				seq++
				m := mkMsg(vtime.Duration(a)*vtime.Millisecond, seq, a)
				pos, _ := fk.insert(entryOf(m, 0))
				if p, _ := mi.insert(entryOf(m, 0)); p != pos {
					t.Fatalf("op %d: inserted at %d and %d", op, pos, p)
				}
				if pos < len(stamped) {
					for s, w := range ws {
						w.undo(pos)
						if got := snapTally(w, apps[s]); !got.equal(stamped[pos]) {
							t.Fatalf("op %d: undo(%d) on %s restored %+v, stamped %+v", op, pos, [2]string{"FK", "MI"}[s], got, stamped[pos])
						}
					}
					stamped = stamped[:pos]
				}
				for i := pos; i < fk.Len(); i++ {
					stamped = append(stamped, snapTally(fk, fkApp))
					for s, w := range ws {
						deliverTally(w, apps[s], i)
					}
				}
			case 2: // settlement retires the oldest entries
				n := a % (len(stamped) + 1)
				for _, w := range ws {
					w.retire(n)
				}
				stamped = stamped[n:]
			case 3: // a crash empties both
				for _, w := range ws {
					w.reset()
				}
				stamped = nil
			}
			if fk.depth() != len(stamped) || mi.depth() != len(stamped) {
				t.Fatalf("op %d: depths %d and %d, %d stamped", op, fk.depth(), mi.depth(), len(stamped))
			}
			if f, m := snapTally(fk, fkApp), snapTally(mi, miApp); !f.equal(m) {
				t.Fatalf("op %d: FK holds %+v, MI %+v", op, f, m)
			}
		}
	})
}
