package journal

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// intLog journals assignments to one slice of ints: each entry is a
// (slot, old-value) pair, the canonical MI undo record.
type slotUndo struct {
	slot int
	old  int
}

func newIntLog(state []int) *Log[slotUndo] {
	return New(func(u slotUndo) { state[u.slot] = u.old })
}

func set(l *Log[slotUndo], state []int, slot, v int) {
	l.Record(slotUndo{slot: slot, old: state[slot]})
	state[slot] = v
}

func TestDisabledLogRecordsNothing(t *testing.T) {
	state := make([]int, 4)
	l := newIntLog(state)
	set(l, state, 0, 7)
	if l.Len() != 0 {
		t.Fatalf("disabled log recorded %d entries", l.Len())
	}
	// Rewind/Compact on a disabled log are no-ops, never panics.
	l.Rewind(0)
	l.Compact(5)
	if state[0] != 7 {
		t.Fatal("disabled rewind must not touch state")
	}
}

func TestRewindRestoresAcrossMultipleMarks(t *testing.T) {
	state := make([]int, 4)
	l := newIntLog(state)
	l.Enable()

	m0 := l.Mark()
	set(l, state, 0, 1)
	set(l, state, 1, 2)
	m1 := l.Mark()
	set(l, state, 0, 10)
	set(l, state, 2, 3)
	m2 := l.Mark()
	set(l, state, 1, 20)

	// Rewind past two marks in one step: back to m1.
	l.Rewind(m1)
	if state[0] != 1 || state[1] != 2 || state[2] != 0 {
		t.Fatalf("after rewind to m1: %v", state)
	}
	if l.Mark() != m1 {
		t.Fatalf("mark after rewind = %d, want %d", l.Mark(), m1)
	}
	_ = m2

	// Mutate again and rewind all the way to the beginning.
	set(l, state, 3, 9)
	l.Rewind(m0)
	if state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0 {
		t.Fatalf("after rewind to m0: %v", state)
	}
	if l.Len() != 0 {
		t.Fatalf("len after full rewind = %d", l.Len())
	}
}

func TestRewindToCurrentMarkIsNoop(t *testing.T) {
	state := make([]int, 1)
	l := newIntLog(state)
	l.Enable()
	set(l, state, 0, 5)
	l.Rewind(l.Mark())
	if state[0] != 5 || l.Len() != 1 {
		t.Fatal("rewind to head must not undo anything")
	}
}

func TestCompactDropsPrefixKeepsMarksValid(t *testing.T) {
	state := make([]int, 4)
	l := newIntLog(state)
	l.Enable()
	set(l, state, 0, 1)
	set(l, state, 1, 2)
	m := l.Mark() // checkpoint that stays live
	set(l, state, 2, 3)
	set(l, state, 3, 4)

	l.Compact(m)
	if l.Base() != m {
		t.Fatalf("base = %d, want %d", l.Base(), m)
	}
	if l.Len() != 2 {
		t.Fatalf("len after compact = %d, want 2", l.Len())
	}
	// The surviving mark still rewinds correctly.
	l.Rewind(m)
	if state[2] != 0 || state[3] != 0 {
		t.Fatalf("rewind to surviving mark: %v", state)
	}
	// The compacted prefix really is gone: state[0], state[1] stay set.
	if state[0] != 1 || state[1] != 2 {
		t.Fatalf("compacted entries must not be undone: %v", state)
	}
	// Compacting to or below base is a no-op.
	l.Compact(m)
	l.Compact(0)
	if l.Base() != m {
		t.Fatal("compact below base moved base")
	}
}

func TestCompactThenGrowThenRewind(t *testing.T) {
	// Settlement interleaved with new mutations: compaction must not
	// disturb absolute marks taken after it.
	state := make([]int, 2)
	l := newIntLog(state)
	l.Enable()
	for i := 0; i < 10; i++ {
		set(l, state, 0, i+1)
	}
	l.Compact(l.Mark())
	m := l.Mark()
	set(l, state, 1, 42)
	l.Rewind(m)
	if state[0] != 10 || state[1] != 0 {
		t.Fatalf("state after compact+rewind: %v", state)
	}
}

func TestRewindOutOfRangePanics(t *testing.T) {
	l := newIntLog(make([]int, 1))
	l.Enable()
	for _, f := range []func(){
		func() { l.Rewind(5) },
		func() { l.Compact(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Growing a journal from empty allocates its records once: at most N
// cells plus one 256-cell piece, where doubling a slice allocates about
// 2N. Sliding it at constant depth afterwards (record, then compact the
// oldest) allocates nothing.
func TestGrowthAllocatesOnce(t *testing.T) {
	// A race-detector build does not fuse append(s, make(...)...), so a
	// new piece there allocates twice. Detected by that effect.
	if testing.AllocsPerRun(10, func() { grownSink = slices.Grow([]int(nil), 8) }) != 1 {
		t.Skip("slices.Grow allocates twice in this build (race detector on)")
	}
	const n = 1000
	state := make([]int, 4)
	l := newIntLog(state)
	l.Enable()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		set(l, state, i%4, i)
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(n+256)*uint64(unsafe.Sizeof(slotUndo{})); got > max {
		t.Fatalf("growing to %d records allocated %d B, want at most %d", n, got, max)
	}
	i := n
	if got := testing.AllocsPerRun(1000, func() {
		set(l, state, i%4, i)
		l.Compact(l.Base() + 1)
		i++
	}); got != 0 {
		t.Fatalf("sliding record/compact: %v allocs, want 0", got)
	}
}

// At outside [Base, Mark) panics rather than returning a compacted or
// rewound cell.
func TestAtOutsideLivePanics(t *testing.T) {
	state := make([]int, 4)
	l := newIntLog(state)
	l.Enable()
	for i := range 10 {
		set(l, state, i%4, i)
	}
	l.Compact(3)
	l.Rewind(8)
	for _, m := range []Mark{2, 8, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) outside [%d,%d) did not panic", m, l.Base(), l.Mark())
				}
			}()
			l.At(m)
		}()
	}
}

// grownSink keeps the race-build probe's slice alive.
var grownSink []int
