package journal

import (
	"slices"
	"testing"

	"defined/internal/rng"
)

// logModel is the naive model FuzzLogProgram holds a Log to: a full copy
// of the state at every mark, and nothing clever.
type logModel struct {
	t       *testing.T
	l       *Log[slotUndo]
	state   []int
	entries []slotUndo // every live record, entries[0] at base
	base    Mark
	marks   []modelMark
	enabled bool
}

type modelMark struct {
	m    Mark
	snap []int
}

func (o *logModel) head() Mark { return o.base + Mark(len(o.entries)) }

// mustPanic runs f, which must panic and must not move the state.
func (o *logModel) mustPanic(what string, f func()) {
	o.t.Helper()
	before := slices.Clone(o.state)
	defer func() {
		o.t.Helper()
		if recover() == nil {
			o.t.Fatalf("%s did not panic", what)
		}
		if !slices.Equal(o.state, before) {
			o.t.Fatalf("%s moved the state before panicking: %v -> %v", what, before, o.state)
		}
	}()
	f()
}

func (o *logModel) agree() {
	o.t.Helper()
	if o.l.Base() != o.base || o.l.Mark() != o.head() || o.l.Len() != len(o.entries) || o.l.Enabled() != o.enabled {
		o.t.Fatalf("log at base %d head %d len %d enabled %v, model at %d %d %d %v",
			o.l.Base(), o.l.Mark(), o.l.Len(), o.l.Enabled(), o.base, o.head(), len(o.entries), o.enabled)
	}
}

// runLogProgram interprets data as (op, a, b) triples.
func runLogProgram(t *testing.T, data []byte) {
	o := &logModel{t: t, state: make([]int, 8)}
	o.l = newIntLog(o.state)
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0], int(data[1]), int(data[2])
		switch op % 8 {
		case 0, 1: // a journaled write
			slot := a % len(o.state)
			if o.enabled {
				o.entries = append(o.entries, slotUndo{slot: slot, old: o.state[slot]})
			}
			set(o.l, o.state, slot, b)
		case 2: // take a mark (a disabled log has one constant mark)
			m := o.l.Mark()
			if m != o.head() {
				t.Fatalf("Mark() = %d, want %d", m, o.head())
			}
			o.marks = append(o.marks, modelMark{m, slices.Clone(o.state)})
		case 3: // rewind to a mark taken earlier
			if len(o.marks) == 0 {
				continue
			}
			i := a % len(o.marks)
			mk := o.marks[i]
			switch {
			case !o.enabled:
				before := slices.Clone(o.state)
				o.l.Rewind(mk.m)
				if !slices.Equal(o.state, before) {
					t.Fatal("a disabled log rewound")
				}
			case mk.m < o.base:
				o.mustPanic("rewind below the compaction point", func() { o.l.Rewind(mk.m) })
			default:
				o.l.Rewind(mk.m)
				if !slices.Equal(o.state, mk.snap) {
					t.Fatalf("after Rewind(%d) the state is %v, the snapshot at the mark %v", mk.m, o.state, mk.snap)
				}
				o.entries = o.entries[:mk.m-o.base]
				// Marks past the new head name positions that no longer
				// exist (and may exist again, meaning something else).
				o.marks = slices.DeleteFunc(o.marks, func(x modelMark) bool { return x.m > mk.m })
			}
		case 4: // compact to a mark: it and every younger one stay valid
			if len(o.marks) == 0 {
				continue
			}
			mk := o.marks[a%len(o.marks)]
			o.l.Compact(mk.m)
			if o.enabled && mk.m > o.base {
				o.entries = o.entries[mk.m-o.base:]
				o.base = mk.m
			}
		case 5: // out-of-range positions panic, loudly and harmlessly
			if !o.enabled {
				continue
			}
			o.mustPanic("rewind past the head", func() { o.l.Rewind(o.head() + 1 + Mark(a)) })
			o.mustPanic("compact past the head", func() { o.l.Compact(o.head() + 1 + Mark(a)) })
			if o.base > 0 {
				o.mustPanic("rewind below the base", func() { o.l.Rewind(o.base - 1 - Mark(a)%o.base) })
				o.mustPanic("At below the base", func() { o.l.At(o.base - 1 - Mark(a)%o.base) })
			}
			o.mustPanic("At at the head", func() { o.l.At(o.head() + Mark(a)) })
		case 6: // At reads every live record back
			for p := o.base; p < o.head(); p++ {
				if got, want := o.l.At(p), o.entries[p-o.base]; got != want {
					t.Fatalf("At(%d) = %+v, want %+v", p, got, want)
				}
			}
		case 7: // enable: marks of the disabled log described no position
			if !o.enabled {
				o.l.Enable()
				o.enabled = true
				o.marks = o.marks[:0]
			}
		}
		o.agree()
	}
	// Every mark at or past the compaction point still restores its
	// snapshot, newest first.
	if !o.enabled {
		return
	}
	slices.SortStableFunc(o.marks, func(x, y modelMark) int { return int(y.m) - int(x.m) })
	for _, mk := range o.marks {
		if mk.m < o.base {
			o.mustPanic("rewind below the compaction point", func() { o.l.Rewind(mk.m) })
			continue
		}
		o.l.Rewind(mk.m)
		if !slices.Equal(o.state, mk.snap) {
			t.Fatalf("final Rewind(%d): state %v, snapshot %v", mk.m, o.state, mk.snap)
		}
	}
}

// FuzzLogProgram holds Log to a snapshot-per-mark model over arbitrary
// programs of Record, Mark, Rewind, Compact, At and Enable: the state after
// Rewind(m) is the snapshot taken at m, marks at or past the compaction
// point stay valid, positions outside [Base, Mark] panic without touching
// the state, and a disabled log does nothing at all. The seeds below run
// under plain `go test`.
func FuzzLogProgram(f *testing.F) {
	// Enable, write, mark, write, mark, write; compact to the first mark;
	// rewind to the second; probe the ends; read everything back.
	f.Add([]byte{
		7, 0, 0, 0, 1, 5, 2, 0, 0, 0, 2, 6, 1, 1, 7, 2, 0, 0, 0, 3, 8,
		4, 0, 0, 3, 1, 0, 5, 0, 0, 6, 0, 0, 3, 0, 0,
	})
	// Writes and marks while disabled, then enable and rewind to a mark
	// taken before (dropped by the model: it named no position).
	f.Add([]byte{0, 1, 1, 2, 0, 0, 3, 0, 0, 4, 0, 0, 7, 0, 0, 2, 0, 0, 0, 1, 9, 3, 0, 0, 3, 1, 0})
	// Compact to the head, keep writing, rewind to the compaction point.
	f.Add([]byte{7, 0, 0, 0, 0, 1, 0, 1, 2, 2, 0, 0, 4, 0, 0, 0, 2, 3, 0, 3, 4, 2, 0, 0, 3, 0, 0, 5, 3, 0, 6, 0, 0})
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		prog := make([]byte, 3*300)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		prog[0] = 7 // enabled from the start: the interesting half
		f.Add(prog)
	}
	f.Fuzz(runLogProgram)
}
