package checkpoint

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"defined/internal/journal"
	"defined/internal/slide"
)

// The tests below drive an MI node's checkpoint stack as the rollback window
// keeps it — a slide.Buf of Marks, pushed per delivery, truncated by a
// rollback and dropped from the front by settlement — where a separate
// stack type used to sit.

// TestCellSizes pins the size of this package's per-delivery cells: a field
// added later must fail here, not show up in a heap profile.
func TestCellSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"Marks: the two journal positions of an MI checkpoint, one per speculative delivery, no pointers", unsafe.Sizeof(Marks{}), 16},
	} {
		if c.got > c.max {
			t.Errorf("%s: %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
}

func TestKeeperStack(t *testing.T) {
	var k slide.Buf[Marks]
	for i := 0; i < 5; i++ {
		k.Push(Marks{App: journal.Mark(i), Counters: journal.Mark(10 * i)})
	}
	if k.Len() != 5 {
		t.Fatalf("len = %d", k.Len())
	}
	if m := *k.At(2); m != (Marks{App: 2, Counters: 20}) {
		t.Fatalf("At(2) = %+v", m)
	}
	k.Truncate(3)
	if k.Len() != 3 {
		t.Fatalf("after truncate len = %d", k.Len())
	}
	if k.At(2).App != 2 {
		t.Fatal("truncate removed wrong elements")
	}
	k.DropFront(2)
	if k.Len() != 1 || *k.At(0) != (Marks{App: 2, Counters: 20}) {
		t.Fatalf("after drop len = %d", k.Len())
	}
}

func TestKeeperPanics(t *testing.T) {
	var k slide.Buf[Marks]
	k.Push(Marks{App: 1})
	for _, f := range []func(){
		func() { k.Truncate(5) },
		func() { k.Truncate(-1) },
		func() { k.DropFront(5) },
		func() { k.DropFront(-1) },
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

// Growing a stack from empty allocates its cells once: at most N cells
// plus one 256-cell piece, where doubling a slice allocates about 2N.
// Sliding it at constant depth afterwards allocates nothing.
func TestKeeperGrowthAllocatesOnce(t *testing.T) {
	// A race-detector build does not fuse append(s, make(...)...), so a
	// new piece there allocates twice. Detected by that effect.
	if testing.AllocsPerRun(10, func() { grownSink = slices.Grow([]int(nil), 8) }) != 1 {
		t.Skip("slices.Grow allocates twice in this build (race detector on)")
	}
	const n = 1000
	var k slide.Buf[Marks]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		k.Push(Marks{App: journal.Mark(i)})
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(n+256)*uint64(unsafe.Sizeof(Marks{})); got > max {
		t.Fatalf("growing to %d marks allocated %d B, want at most %d", n, got, max)
	}
	i := n
	if got := testing.AllocsPerRun(1000, func() {
		k.Push(Marks{App: journal.Mark(i)})
		k.DropFront(1)
		i++
	}); got != 0 {
		t.Fatalf("sliding push/drop: %v allocs, want 0", got)
	}
}

// Reaching outside the stack panics rather than returning a recycled cell.
func TestKeeperRangeChecks(t *testing.T) {
	var k slide.Buf[Marks]
	for i := range 10 {
		k.Push(Marks{App: journal.Mark(i)})
	}
	k.DropFront(4)
	k.Truncate(5)
	for name, f := range map[string]func(){
		"At(Len)":          func() { k.At(5) },
		"At(-1)":           func() { k.At(-1) },
		"Truncate(Len+1)":  func() { k.Truncate(6) },
		"Truncate(-1)":     func() { k.Truncate(-1) },
		"DropFront(Len+1)": func() { k.DropFront(6) },
		"DropFront(-1)":    func() { k.DropFront(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// grownSink keeps the race-build probe's slice alive.
var grownSink []int
