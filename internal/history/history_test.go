package history

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/rng"
	"defined/internal/vtime"
)

func entry(group uint64, delay vtime.Duration, origin msg.NodeID, seq uint64, at vtime.Time) Entry {
	m := &msg.Message{
		ID:      msg.ID{Sender: origin, Seq: seq},
		Ann:     msg.Annotation{Origin: origin, Seq: seq, Delay: delay, Group: group},
		LinkSeq: seq,
	}
	return Entry{Key: ordering.KeyOf(m), Msg: m, ArrivedAt: at}
}

func TestInsertInOrder(t *testing.T) {
	w := New(ordering.Optimized())
	for i := uint64(0); i < 5; i++ {
		pos, dup := w.Insert(entry(1, vtime.Duration(i), 0, i, vtime.Time(i)))
		if dup {
			t.Fatal("unexpected duplicate")
		}
		if pos != int(i) {
			t.Fatalf("in-order insert at pos %d, want %d", pos, i)
		}
	}
	if w.Len() != 5 {
		t.Fatalf("len = %d", w.Len())
	}
	if err := w.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertOutOfOrderDetectsDivergence(t *testing.T) {
	// Figure 2: arrival order mb, md, mc, ma; computed order mb, ma, md,
	// mc. Inserting ma must land at position 1, displacing md and mc.
	w := New(ordering.Optimized())
	mb := entry(1, 10, 0, 0, 100)
	ma := entry(1, 10, 0, 1, 400)
	md := entry(1, 10, 0, 2, 200)
	mc := entry(1, 10, 0, 3, 300)

	if pos, _ := w.Insert(mb); pos != 0 {
		t.Fatalf("mb at %d", pos)
	}
	if pos, _ := w.Insert(md); pos != 1 {
		t.Fatalf("md at %d", pos)
	}
	if pos, _ := w.Insert(mc); pos != 2 {
		t.Fatalf("mc at %d", pos)
	}
	pos, dup := w.Insert(ma)
	if dup {
		t.Fatal("ma is not a duplicate")
	}
	if pos != 1 {
		t.Fatalf("ma should insert at 1 (rollback point), got %d", pos)
	}
	// The rolled-back suffix is md, mc — exactly the paper's rollback set.
	if w.Len()-(pos+1) != 2 || w.At(pos+1).Msg.ID.Seq != 2 || w.At(pos+2).Msg.ID.Seq != 3 {
		t.Fatalf("rollback set wrong: %v, %v", w.At(pos+1), w.At(pos+2))
	}
	if err := w.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateInsert(t *testing.T) {
	w := New(ordering.Optimized())
	e := entry(1, 5, 2, 3, 10)
	if _, dup := w.Insert(e); dup {
		t.Fatal("first insert cannot be dup")
	}
	pos, dup := w.Insert(e)
	if !dup || pos != 0 {
		t.Fatalf("second insert: pos=%d dup=%v", pos, dup)
	}
	if w.Len() != 1 {
		t.Fatal("duplicate must not grow the window")
	}
}

func TestRemoveAtAndFind(t *testing.T) {
	w := New(ordering.Optimized())
	a := entry(1, 1, 0, 0, 10)
	b := entry(1, 2, 0, 1, 20)
	c := entry(1, 3, 0, 2, 30)
	w.Insert(a)
	w.Insert(b)
	w.Insert(c)
	if i := w.FindMsg(b.Msg.ID); i != 1 {
		t.Fatalf("FindMsg = %d", i)
	}
	if i := w.FindKey(c.Key); i != 2 {
		t.Fatalf("FindKey = %d", i)
	}
	if i := w.FindMsg(msg.ID{Sender: 9, Seq: 9}); i != -1 {
		t.Fatalf("missing FindMsg = %d", i)
	}
	if i := w.FindKey(ordering.TimerKey(5, 5)); i != -1 {
		t.Fatalf("missing FindKey = %d", i)
	}
	if removed := w.RemoveAt(1); removed != b.Key {
		t.Fatal("removed wrong entry")
	}
	if w.Len() != 2 || w.At(1).Msg.ID != c.Msg.ID {
		t.Fatal("window wrong after removal")
	}
	if err := w.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerEntries(t *testing.T) {
	w := New(ordering.Optimized())
	m := entry(2, 1, 0, 0, 10)
	w.Insert(m)
	timer := Entry{Key: ordering.TimerKey(2, 0), ArrivedAt: 5}
	pos, _ := w.Insert(timer)
	if pos != 0 {
		t.Fatalf("timer batch for group 2 must sort before group-2 messages, pos=%d", pos)
	}
	if !w.At(0).Key().IsTimer() {
		t.Fatal("IsTimer() wrong")
	}
	if w.At(0).String() == "" || w.At(1).String() == "" {
		t.Fatal("String() renders empty")
	}
}

// settleScan mirrors the rollback engine's single-pass settlement: count
// the prefix older than the cutoff — stopping at the first newer entry
// even if later entries are older — then Retire it.
func settleScan(w *Window, cutoff vtime.Time) int {
	n := 0
	for n < w.Len() && w.At(n).ArrivedAt.Before(cutoff) {
		n++
	}
	w.Retire(n)
	return n
}

func TestSettle(t *testing.T) {
	w := New(ordering.Optimized())
	w.Insert(entry(1, 1, 0, 0, 10))
	w.Insert(entry(1, 2, 0, 1, 20))
	w.Insert(entry(1, 3, 0, 2, 5)) // newest in order but oldest arrival
	// Cutoff 15: only the first entry (arrival 10) retires; the third
	// (arrival 5) is behind a newer entry and must stay.
	if n := settleScan(w, 15); n != 1 {
		t.Fatalf("settled %d, want 1", n)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
	if n := settleScan(w, 100); n != 2 {
		t.Fatalf("settled %d, want 2", n)
	}
	if w.Len() != 0 {
		t.Fatal("window should be empty")
	}
	if n := settleScan(w, 1000); n != 0 {
		t.Fatal("settling empty window should be 0")
	}
}

func TestKeys(t *testing.T) {
	w := New(ordering.Optimized())
	w.Insert(entry(1, 2, 0, 1, 1))
	w.Insert(entry(1, 1, 0, 0, 2))
	ks := w.Keys()
	if len(ks) != 2 || ks[0].Delay != 1 || ks[1].Delay != 2 {
		t.Fatalf("keys = %v", ks)
	}
}

// Property: for any arrival permutation, after all inserts the window holds
// the same sorted sequence, and each insert position correctly identifies
// the displaced suffix.
func TestInsertPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 2
		r := rng.New(seed)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = entry(uint64(r.Intn(2)), vtime.Duration(r.Intn(5)),
				msg.NodeID(r.Intn(3)), uint64(i), vtime.Time(i))
		}
		ref := New(ordering.Optimized())
		for _, e := range entries {
			ref.Insert(e)
		}
		perm := r.Perm(n)
		w := New(ordering.Optimized())
		for _, p := range perm {
			before := w.Len()
			pos, dup := w.Insert(entries[perm[p]])
			_ = pos
			if dup {
				return false // all keys distinct by construction (seq=i)
			}
			if w.Len() != before+1 {
				return false
			}
			if w.CheckInvariant() != nil {
				return false
			}
		}
		if w.Len() != ref.Len() {
			return false
		}
		for i := 0; i < w.Len(); i++ {
			if w.At(i).Key() != ref.At(i).Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Retire is the pre-scanned commit half of Settle: it must drop exactly
// the requested prefix and tolerate n <= 0.
func TestRetire(t *testing.T) {
	w := New(ordering.Optimized())
	w.Insert(entry(1, 1, 0, 0, 10))
	w.Insert(entry(1, 2, 0, 1, 20))
	w.Insert(entry(1, 3, 0, 2, 30))
	w.Retire(0)
	w.Retire(-1)
	if w.Len() != 3 {
		t.Fatalf("no-op retire changed the window: len %d", w.Len())
	}
	w.Retire(2)
	if w.Len() != 1 || w.At(0).Key().Delay != 3 {
		t.Fatalf("retire(2): len=%d keys=%v", w.Len(), w.Keys())
	}
	if err := w.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// pooledEntry builds an entry whose message comes refcounted from p.
func pooledEntry(p *msg.Pool, group uint64, delay vtime.Duration, origin msg.NodeID, seq uint64, at vtime.Time) Entry {
	m := p.Get()
	m.ID = msg.ID{Sender: origin, Seq: seq}
	m.Ann = msg.Annotation{Origin: origin, Seq: seq, Delay: delay, Group: group}
	m.LinkSeq = seq
	return Entry{Key: ordering.KeyOf(m), Msg: m, ArrivedAt: at}
}

// The window participates in the refcounted lifecycle: Insert retains,
// Retire and RemoveAt release, duplicate inserts retain nothing.
func TestWindowRetainsAndReleasesMessages(t *testing.T) {
	var p msg.Pool
	w := New(ordering.Optimized())

	e0 := pooledEntry(&p, 1, 10, 0, 1, 100)
	e1 := pooledEntry(&p, 1, 20, 0, 2, 200)
	w.Insert(e0)
	w.Insert(e1)
	if e0.Msg.Refs() != 2 || e1.Msg.Refs() != 2 {
		t.Fatalf("refs after insert = %d, %d, want 2, 2", e0.Msg.Refs(), e1.Msg.Refs())
	}

	// A duplicate key must not add a reference.
	dup := pooledEntry(&p, 1, 10, 0, 1, 150)
	if _, isDup := w.Insert(dup); !isDup {
		t.Fatal("expected duplicate")
	}
	if dup.Msg.Refs() != 1 {
		t.Fatalf("duplicate retained: refs = %d, want 1", dup.Msg.Refs())
	}
	dup.Msg.Release()

	// RemoveAt drops the window's reference.
	w.RemoveAt(1)
	if e1.Msg.Refs() != 1 {
		t.Fatalf("refs after RemoveAt = %d, want 1", e1.Msg.Refs())
	}
	e1.Msg.Release()

	// Retire drops the window's reference on the retired prefix; with the
	// caller's reference also gone the struct recycles.
	e0.Msg.Release()
	if e0.Msg.Refs() != 1 {
		t.Fatalf("refs before retire = %d, want 1 (window)", e0.Msg.Refs())
	}
	w.Retire(1)
	if p.Live() != 0 {
		t.Fatalf("pool live = %d after retire, want 0", p.Live())
	}
}

// searchInsert is Insert as it was before the tail shortcut, on a plain
// sorted slice: always a binary search. It is the oracle for where an
// entry belongs.
func searchInsert(f ordering.Func, ref *[]Entry, e Entry) (pos int, dup bool) {
	pos = sort.Search(len(*ref), func(i int) bool {
		return f.Compare((*ref)[i].Key, e.Key) >= 0
	})
	if pos < len(*ref) && f.Compare((*ref)[pos].Key, e.Key) == 0 {
		return pos, true
	}
	*ref = slices.Insert(*ref, pos, e)
	return pos, false
}

// Insert's tail-first path must agree with the search it skips — position,
// duplicate verdict and resulting window — on an empty window, on in-order
// runs (the path it exists for), on a duplicate of the tail itself and of
// interior entries, and on stragglers.
func TestInsertTailPathMatchesSearch(t *testing.T) {
	for _, tc := range []struct {
		f        ordering.Func
		minTails int // RO scatters arrivals by chain hash: few land on the tail
	}{{ordering.Optimized(), 1000}, {ordering.Random(5), 10}} {
		f := tc.f
		r := rng.New(9)
		w, ref := New(f), []Entry(nil)
		tails, dups := 0, 0
		step := func(e Entry) {
			t.Helper()
			wasEmpty := len(ref) == 0
			wantPos, wantDup := searchInsert(f, &ref, e)
			pos, dup := w.Insert(e)
			if pos != wantPos || dup != wantDup {
				t.Fatalf("%s: Insert(%v) = (%d, %v), search says (%d, %v) (window empty: %v)",
					f.Name(), e.Key, pos, dup, wantPos, wantDup, wasEmpty)
			}
			if !dup && pos == w.Len()-1 {
				tails++
			}
			if dup {
				dups++
			}
			if w.Len() != len(ref) {
				t.Fatalf("%s: window holds %d entries, search %d after Insert(%v)", f.Name(), w.Len(), len(ref), e.Key)
			}
			for i := range ref {
				if c := w.At(i); entryAt(c) != ref[i] || c.Rank != f.Rank(ref[i].Key) {
					t.Fatalf("%s: windows differ at %d after Insert(%v)", f.Name(), i, e.Key)
				}
			}
		}
		for i := 0; i < 3000; i++ {
			// Mostly ascending d_i with the occasional straggler, in one
			// group so the ordering's own leading field decides.
			d := vtime.Duration(i)
			if r.Intn(5) == 0 {
				d = vtime.Duration(r.Intn(i + 1))
			}
			step(entry(1, d, msg.NodeID(r.Intn(3)), uint64(i), vtime.Time(i)))
			switch r.Intn(8) {
			case 0: // the tail again
				step(entryAt(w.At(w.Len() - 1)))
			case 1: // an interior entry again
				step(entryAt(w.At(r.Intn(w.Len()))))
			}
			if r.Intn(500) == 0 { // start over from empty
				w.Retire(w.Len())
				ref = ref[:0]
			}
		}
		if tails < tc.minTails || dups < 300 {
			t.Fatalf("%s: program too tame: %d tail inserts, %d duplicates", f.Name(), tails, dups)
		}
	}
}

// entryAt is the arrival c was stored for, its key derived.
func entryAt(c *Cell) Entry {
	return Entry{Key: c.Key(), Msg: c.Msg, Ext: c.Ext, ArrivedAt: c.ArrivedAt}
}

// timerEntry is an in-order window entry that references no message.
func timerEntry(group uint64) Entry {
	return Entry{Key: ordering.TimerKey(group, 0), ArrivedAt: vtime.Time(group)}
}

// Growing a window from empty allocates its cells once: at most N cells
// plus one 256-cell piece, where doubling a slice allocates about 2N. The
// bound is in stored cells, not in the larger Entry an arrival is handed
// in as, so a ring that doubled its storage would exceed it. Sliding it at
// constant occupancy afterwards (insert, then retire the oldest) allocates
// nothing.
func TestWindowGrowthAllocatesOnce(t *testing.T) {
	// A race-detector build does not fuse append(s, make(...)...), so a
	// new piece there allocates twice. Detected by that effect.
	if testing.AllocsPerRun(10, func() { grownSink = slices.Grow([]int(nil), 8) }) != 1 {
		t.Skip("slices.Grow allocates twice in this build (race detector on)")
	}
	const n = 1000
	w := New(ordering.Optimized())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for g := range uint64(n) {
		w.Insert(timerEntry(g))
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(n+256)*uint64(unsafe.Sizeof(Cell{})); got > max {
		t.Fatalf("growing to %d entries allocated %d B, want at most %d", n, got, max)
	}
	g := uint64(n)
	if got := testing.AllocsPerRun(1000, func() {
		w.Insert(timerEntry(g))
		w.Retire(1)
		g++
	}); got != 0 {
		t.Fatalf("sliding insert/retire: %v allocs, want 0", got)
	}
}

// At past Len panics rather than returning a retired cell.
func TestWindowAtPastLenPanics(t *testing.T) {
	w := New(ordering.Optimized())
	for g := range uint64(8) {
		w.Insert(timerEntry(g))
	}
	w.Retire(3)
	defer func() {
		if recover() == nil {
			t.Fatal("At(Len) did not panic")
		}
	}()
	w.At(w.Len())
}

// grownSink keeps the race-build probe's slice alive.
var grownSink []int

// FindKey returns the position of the cell with exactly key, or -1.
func (w *Window) FindKey(key ordering.Key) int {
	r := w.f.Rank(key)
	pos := sort.Search(w.cells.Len(), func(i int) bool {
		return CompareKey(w.f, w.cells.At(i), key, r) >= 0
	})
	if pos < w.cells.Len() && CompareKey(w.f, w.cells.At(pos), key, r) == 0 {
		return pos
	}
	return -1
}

// CheckInvariant verifies the window is sorted; it returns an error
// describing the first violation (testing/debug helper).
func (w *Window) CheckInvariant() error {
	for i := 1; i < w.cells.Len(); i++ {
		if prev, cur := w.cells.At(i-1), w.cells.At(i); compare(w.f, prev, cur) >= 0 {
			return fmt.Errorf("history: window out of order at %d: %v >= %v", i, prev, cur)
		}
	}
	return nil
}
