package slide

import (
	"slices"
	"testing"
)

// cell holds a pointer, so a vacated cell that is not cleared shows: it
// would pin what it points to.
type cell struct {
	p *int
	v int
}

// appendStep is the capacity append reaches when it adds one element to a
// full slice of capacity c of this cell type (allocator rounding
// included), or that a four-cell slice gets when c is 0.
func appendStep(c int) int {
	if c == 0 {
		return cap(slices.Grow([]cell(nil), 4))
	}
	return cap(append(make([]cell, c), cell{}))
}

// maxCells bounds a program's buffer, so agree's full check stays cheap
// while still reaching the clipped pieces past 832 cells.
const maxCells = 2000

// bufModel drives a Buf and a plain slice side by side.
type bufModel struct {
	t     *testing.T
	b     Buf[cell]
	model []cell
	next  int
}

func (o *bufModel) fresh() cell {
	o.next++
	v := o.next
	return cell{p: &v, v: v}
}

// mustPanic runs f, which must panic.
func (o *bufModel) mustPanic(what string, f func()) {
	o.t.Helper()
	defer func() {
		o.t.Helper()
		if recover() == nil {
			o.t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// agree checks contents, length, spans, cleared free cells and capacity.
func (o *bufModel) agree(op int) {
	o.t.Helper()
	b := &o.b
	if b.Len() != len(o.model) {
		o.t.Fatalf("op %d: Len %d, model %d", op, b.Len(), len(o.model))
	}
	for i, want := range o.model {
		if got := *b.At(i); got != want {
			o.t.Fatalf("op %d: At(%d) = %v, model %v", op, i, got, want)
		}
	}
	var walked []cell
	for i := 0; i < b.Len(); {
		s := b.Span(i)
		walked = append(walked, s...)
		i += len(s)
	}
	var back []cell
	for j := b.Len(); j > 0; {
		s := b.SpanBefore(j)
		back = append(slices.Clone(s), back...)
		j -= len(s)
	}
	if !slices.Equal(walked, o.model) || !slices.Equal(back, o.model) {
		o.t.Fatalf("op %d: span walks %v and %v, model %v", op, walked, back, o.model)
	}
	if b.c > 0 && b.head >= len(b.pieces[0]) {
		o.t.Fatalf("op %d: head %d outside the first piece (%d cells)", op, b.head, len(b.pieces[0]))
	}
	// Every cell outside the live range must read as the zero value.
	for v := range b.c {
		if (v-b.head+b.c)%b.c < b.n {
			continue
		}
		if s, off := b.locate(v); s[off] != (cell{}) {
			o.t.Fatalf("op %d: vacated cell at virtual %d holds %v", op, v, s[off])
		}
	}
}

// grow runs f, which adds one cell, and checks the growth rule: the
// buffer grows only when full, and by no more than append's step from the
// same capacity.
func (o *bufModel) grow(op int, f func()) {
	o.t.Helper()
	n, c := o.b.Len(), o.b.c
	f()
	if c2 := o.b.c; c2 != c {
		if n != c {
			o.t.Fatalf("op %d: grew from %d to %d cells holding only %d", op, c, c2, n)
		}
		if want := appendStep(c); c2 > want {
			o.t.Fatalf("op %d: grew from %d to %d cells; append reaches %d", op, c, c2, want)
		}
	}
}

// runBufProgram interprets data as (op, a) pairs.
func runBufProgram(t *testing.T, data []byte) {
	o := &bufModel{t: t}
	b := &o.b
	for op := 0; len(data) >= 2; data, op = data[2:], op+1 {
		a := int(data[1])
		n := len(o.model)
		switch data[0] % 8 {
		case 0: // a burst of pushes, enough to reach the 256-cell pieces
			for range min(a, maxCells-n) {
				c := o.fresh()
				o.grow(op, func() { b.Push(c) })
				o.model = append(o.model, c)
			}
		case 1:
			c := o.fresh()
			o.grow(op, func() { b.Push(c) })
			o.model = append(o.model, c)
		case 2:
			c, i := o.fresh(), a%(n+1)
			o.grow(op, func() { b.Insert(i, c) })
			o.model = slices.Insert(o.model, i, c)
		case 3:
			if n == 0 {
				o.mustPanic("Remove on empty", func() { b.Remove(0) })
				break
			}
			i := a % n
			if got := b.Remove(i); got != o.model[i] {
				o.t.Fatalf("op %d: Remove(%d) = %v, model %v", op, i, got, o.model[i])
			}
			o.model = slices.Delete(o.model, i, i+1)
		case 4:
			k := a % (n + 1)
			b.DropFront(k)
			o.model = o.model[k:]
		case 5:
			k := a % (n + 1)
			b.Truncate(k)
			o.model = o.model[:k]
		case 6: // out of range: every accessor panics and moves nothing
			o.mustPanic("At(Len)", func() { b.At(n + a%3) })
			o.mustPanic("At(-1)", func() { b.At(-1 - a%3) })
			o.mustPanic("Span(Len)", func() { b.Span(n) })
			o.mustPanic("SpanBefore(0)", func() { b.SpanBefore(0) })
			o.mustPanic("DropFront(Len+1)", func() { b.DropFront(n + 1) })
			o.mustPanic("Truncate(Len+1)", func() { b.Truncate(n + 1) })
			o.mustPanic("Insert(Len+1)", func() { b.Insert(n+1, cell{}) })
		case 7: // write through At: the cell is the buffer's own
			if n > 0 {
				i, c := a%n, o.fresh()
				*b.At(i) = c
				o.model[i] = c
			}
		}
		o.agree(op)
	}
}

// FuzzBufOps holds Buf to a plain slice: contents, length, span walks and
// cleared free cells after every operation of a program of pushes,
// inserts, removals, front drops, truncations, reads and writes, and every
// growth step to append's.
func FuzzBufOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0, 4, 1, 1, 0, 1, 0, 1, 0})                 // wrap in the first piece, then grow at the seam
	f.Add([]byte{0, 200, 4, 77, 0, 150, 2, 5, 3, 9, 4, 255, 0, 255})        // past 256 cells with the head mid-piece
	f.Add([]byte{0, 255, 0, 255, 0, 255, 4, 100, 0, 255, 5, 3, 6, 1, 7, 2}) // the clipped pieces past 512
	f.Fuzz(runBufProgram)
}
