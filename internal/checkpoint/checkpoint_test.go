package checkpoint

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"defined/internal/journal"
	"defined/internal/vtime"
)

func TestStrings(t *testing.T) {
	if FK.String() != "FK" || MI.String() != "MI" {
		t.Fatal("mode strings wrong")
	}
	if TF.String() != "TF" || PF.String() != "PF" || TM.String() != "TM" {
		t.Fatal("timing strings wrong")
	}
	if Mode(9).String() != "mode(9)" || Timing(9).String() != "timing(9)" {
		t.Fatal("unknown strings wrong")
	}
	if Default.String() != "TM/MI" {
		t.Fatalf("default strategy = %s", Default)
	}
}

func TestModelOrdering(t *testing.T) {
	// Figure 7b: per-packet overhead TF > PF > TM > baseline(0).
	tf := ModelFor(Strategy{Timing: TF, Mode: MI})
	pf := ModelFor(Strategy{Timing: PF, Mode: MI})
	tm := ModelFor(Strategy{Timing: TM, Mode: MI})
	if !(tf.PerMessage > pf.PerMessage && pf.PerMessage > tm.PerMessage && tm.PerMessage > 0) {
		t.Fatalf("per-message ordering wrong: TF=%v PF=%v TM=%v",
			tf.PerMessage, pf.PerMessage, tm.PerMessage)
	}
	// Figure 7a: rollback FK >> MI.
	fk := ModelFor(Strategy{Timing: TM, Mode: FK})
	mi := ModelFor(Strategy{Timing: TM, Mode: MI})
	if fk.RollbackFixed < 5*mi.RollbackFixed {
		t.Fatalf("FK rollback (%v) should dwarf MI (%v)", fk.RollbackFixed, mi.RollbackFixed)
	}
	if mi.RollbackFixed <= 0 || mi.RollbackPerReplay <= 0 {
		t.Fatal("MI costs must be positive")
	}
	base := Baseline()
	if base.PerMessage != 0 || base.RollbackFixed != 0 {
		t.Fatal("baseline must be free")
	}
	if mi.RollbackFixed > vtime.Millisecond {
		t.Fatalf("MI median should be ~0.6ms, got %v", mi.RollbackFixed)
	}
}

func TestKeeperStack(t *testing.T) {
	var k Keeper
	for i := 0; i < 5; i++ {
		k.Push(Checkpoint{State: i})
	}
	if k.Len() != 5 {
		t.Fatalf("len = %d", k.Len())
	}
	if k.At(2).State.(int) != 2 {
		t.Fatalf("At(2) = %v", k.At(2))
	}
	k.TruncateFrom(3)
	if k.Len() != 3 {
		t.Fatalf("after truncate len = %d", k.Len())
	}
	if k.At(2).State.(int) != 2 {
		t.Fatal("truncate removed wrong elements")
	}
	k.DropFirst(2)
	if k.Len() != 1 || k.At(0).State.(int) != 2 {
		t.Fatalf("after drop len = %d", k.Len())
	}
}

func TestKeeperMarks(t *testing.T) {
	var k Keeper
	k.Push(Checkpoint{App: 3, Counters: 7})
	k.Push(Checkpoint{App: 9, Counters: 11})
	if !k.At(0).IsMark() {
		t.Fatal("mark checkpoint not recognized")
	}
	if k.At(0).App != 3 || k.At(0).Counters != 7 {
		t.Fatalf("marks = %+v", k.At(0))
	}
	app, ctr, ok := k.OldestMarks()
	if !ok || app != 3 || ctr != 7 {
		t.Fatalf("OldestMarks = %d,%d,%v", app, ctr, ok)
	}
	k.DropFirst(1)
	app, ctr, ok = k.OldestMarks()
	if !ok || app != 9 || ctr != 11 {
		t.Fatalf("OldestMarks after drop = %d,%d,%v", app, ctr, ok)
	}
	k.DropFirst(1)
	if _, _, ok := k.OldestMarks(); ok {
		t.Fatal("OldestMarks on empty stack must report !ok")
	}
	// A full snapshot at the front also reports !ok.
	k.Push(Checkpoint{State: "snap"})
	if k.At(0).IsMark() {
		t.Fatal("snapshot checkpoint misclassified as mark")
	}
	if _, _, ok := k.OldestMarks(); ok {
		t.Fatal("OldestMarks with snapshot front must report !ok")
	}
}

func TestKeeperPanics(t *testing.T) {
	var k Keeper
	k.Push(Checkpoint{State: 1})
	for _, f := range []func(){
		func() { k.TruncateFrom(5) },
		func() { k.TruncateFrom(-1) },
		func() { k.DropFirst(5) },
		func() { k.DropFirst(-1) },
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

// A marks-only stack (every MI delivery of a journaled application) never
// creates the snapshot column, through pushes, rollbacks and settlement.
func TestKeeperMarksOnlyHasNoSnapshotColumn(t *testing.T) {
	var k Keeper
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			k.Push(Checkpoint{App: journal.Mark(i), Counters: journal.Mark(2 * i)})
		}
		k.TruncateFrom(60)
		k.DropFirst(20)
		if c := k.At(0); !c.IsMark() || c.App != 20 || c.Counters != 40 {
			t.Fatalf("At(0) = %+v, want the mark pair (20, 40)", c)
		}
		k.TruncateFrom(0)
	}
	if !reflect.ValueOf(k.snaps).IsZero() {
		t.Fatal("a marks-only stack allocated a snapshot column")
	}
	k.Push(Checkpoint{App: 1})
	if got := testing.AllocsPerRun(100, func() {
		k.Push(Checkpoint{App: 2, Counters: 3})
		k.TruncateFrom(1)
	}); got != 0 {
		t.Fatalf("warm mark push: %v allocs, want 0", got)
	}
}

// A mixed stack keeps the two columns aligned: marks pushed before the
// first snapshot get nil cells when the column appears, and TruncateFrom,
// DropFirst and OldestMarks read and release both.
func TestKeeperMixedStack(t *testing.T) {
	var k Keeper
	k.Push(Checkpoint{App: 1, Counters: 10})
	k.Push(Checkpoint{App: 2, Counters: 20})
	k.Push(Checkpoint{State: "s2"}) // the column appears here, two marks deep
	k.Push(Checkpoint{App: 4, Counters: 40})
	k.Push(Checkpoint{State: "s4", App: 5})
	want := []Checkpoint{{App: 1, Counters: 10}, {App: 2, Counters: 20}, {State: "s2"}, {App: 4, Counters: 40}, {State: "s4", App: 5}}
	check := func(when string, want []Checkpoint) {
		t.Helper()
		if k.Len() != len(want) {
			t.Fatalf("%s: len %d, want %d", when, k.Len(), len(want))
		}
		for i, w := range want {
			if got := k.At(i); got != w || got.IsMark() != (w.State == nil) {
				t.Fatalf("%s: At(%d) = %+v, want %+v", when, i, got, w)
			}
		}
		if k.snaps.Len() != 0 && k.snaps.Len() != k.marks.Len() {
			t.Fatalf("%s: columns misaligned: %d snapshots for %d marks", when, k.snaps.Len(), k.marks.Len())
		}
	}
	check("pushed", want)
	if app, ctr, ok := k.OldestMarks(); !ok || app != 1 || ctr != 10 {
		t.Fatalf("OldestMarks = %d,%d,%v, want 1,10,true", app, ctr, ok)
	}
	k.TruncateFrom(4)
	check("truncated", want[:4])
	k.DropFirst(2)
	check("settled", want[2:4])
	if _, _, ok := k.OldestMarks(); ok {
		t.Fatal("OldestMarks with a snapshot at the front must report !ok")
	}
	k.DropFirst(1)
	if app, ctr, ok := k.OldestMarks(); !ok || app != 4 || ctr != 40 {
		t.Fatalf("OldestMarks after the snapshot settled = %d,%d,%v, want 4,40,true", app, ctr, ok)
	}
	k.Push(Checkpoint{App: 6})
	k.Push(Checkpoint{State: "s7"})
	check("pushed again", []Checkpoint{{App: 4, Counters: 40}, {App: 6}, {State: "s7"}})
}

// Truncated and settled snapshots are released: the stack keeps no
// reference to a state it no longer stores.
func TestKeeperReleasesDroppedStates(t *testing.T) {
	var k Keeper
	var w [4]weak.Pointer[[8]int]
	func() {
		for i := range w {
			st := new([8]int)
			w[i] = weak.Make(st)
			k.Push(Checkpoint{State: st})
		}
	}()
	k.TruncateFrom(3) // drops state 3
	k.DropFirst(1)    // settles state 0
	for i := 0; i < 3 && (w[0].Value() != nil || w[3].Value() != nil); i++ {
		runtime.GC()
	}
	if w[0].Value() != nil || w[3].Value() != nil {
		t.Fatal("a settled or truncated snapshot is still reachable")
	}
	if k.At(0).State != w[1].Value() || k.At(1).State != w[2].Value() {
		t.Fatal("the live snapshots moved")
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
	var k Keeper
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		k.Push(Checkpoint{App: journal.Mark(i)})
	}
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(n+256)*uint64(unsafe.Sizeof(marks{})); got > max {
		t.Fatalf("growing to %d marks allocated %d B, want at most %d", n, got, max)
	}
	i := n
	if got := testing.AllocsPerRun(1000, func() {
		k.Push(Checkpoint{App: journal.Mark(i)})
		k.DropFirst(1)
		i++
	}); got != 0 {
		t.Fatalf("sliding push/drop: %v allocs, want 0", got)
	}
}

// Reaching outside the stack panics rather than returning a recycled cell.
func TestKeeperRangeChecks(t *testing.T) {
	var k Keeper
	for i := range 10 {
		k.Push(Checkpoint{App: journal.Mark(i)})
	}
	k.DropFirst(4)
	k.TruncateFrom(5)
	for name, f := range map[string]func(){
		"At(Len)":             func() { k.At(5) },
		"At(-1)":              func() { k.At(-1) },
		"TruncateFrom(Len+1)": func() { k.TruncateFrom(6) },
		"TruncateFrom(-1)":    func() { k.TruncateFrom(-1) },
		"DropFirst(Len+1)":    func() { k.DropFirst(6) },
		"DropFirst(-1)":       func() { k.DropFirst(-1) },
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
