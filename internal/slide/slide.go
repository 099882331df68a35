// Package slide provides Buf, the sliding buffer under the history window,
// the deferral buffer, the checkpoint stack and the undo journals: a ring
// over storage pieces that grows only when full, by adding a piece (never
// copying a cell), and drops its front by moving its head. Pieces follow
// append's steps (4, 4, 8, … 128 cells, then at most 256, cut where
// append's rule past 256 elements stops: 512, 832, 1232, …) and keep their
// allocation's slack, as append's arrays do. Vacated cells are cleared, and
// reaching outside [0, Len) panics rather than returning a recycled cell.
package slide

import (
	"fmt"
	"slices"
)

const (
	firstPiece = 4   // cells in the first piece; the second matches it
	maxPiece   = 256 // largest piece asked for, and where append stops doubling
)

// Buf is a sliding buffer of T; the zero value is empty. Cell i sits at
// virtual position head+i modulo the capacity; the pieces lie in virtual
// order, and the one holding the head comes first.
type Buf[T any] struct {
	pieces     [][]T
	head, n, c int // virtual position of cell 0 (in pieces[0]), live cells, all cells
	f          []T // the piece located last (walks and pushes stay in it)
	fv         int // f's first virtual position
}

// Len reports the number of live cells.
func (b *Buf[T]) Len() int { return b.n }

// At returns cell i itself, valid until an Insert, Remove, DropFront or
// Truncate moves or clears it; Push moves no cell.
func (b *Buf[T]) At(i int) *T {
	if v := b.head + i - b.fv; uint(i) < uint(b.n) && uint(v) < uint(len(b.f)) {
		return &b.f[v]
	}
	return b.at(i)
}

func (b *Buf[T]) at(i int) *T {
	if uint(i) >= uint(b.n) {
		b.outOfRange("index", i)
	}
	s, off := b.locate(b.virt(i))
	return &s[off]
}

// Span returns the longest prefix of cells [i, Len) that lies in one piece.
func (b *Buf[T]) Span(i int) []T {
	if uint(i) >= uint(b.n) {
		b.outOfRange("span at", i)
	}
	s, off := b.locate(b.virt(i))
	return s[off : off+min(len(s)-off, b.n-i)]
}

// SpanBefore returns the longest suffix of cells [0, j) in one piece.
func (b *Buf[T]) SpanBefore(j int) []T {
	if uint(j-1) >= uint(b.n) {
		b.outOfRange("span ending at", j-1)
	}
	s, off := b.locate(b.virt(j - 1))
	return s[off+1-min(off+1, j) : off+1]
}

// Push appends v.
func (b *Buf[T]) Push(v T) {
	if off := b.head + b.n - b.fv; uint(off) < uint(len(b.f)) { // never when full: head+n would be >= c
		b.f[off] = v
		b.n++
		return
	}
	b.push(v)
}

func (b *Buf[T]) push(v T) {
	if b.n == b.c {
		b.grow()
	}
	b.n++
	*b.at(b.n - 1) = v
}

// Insert places v at position i (0 <= i <= Len), shifting cells i… back.
func (b *Buf[T]) Insert(i int, v T) {
	if uint(i) > uint(b.n) {
		b.outOfRange("insert at", i)
	}
	b.Push(*new(T))
	b.shiftUp(i, b.n-1)
	*b.At(i) = v
}

// Remove deletes and returns cell i, shifting the cells after it forward.
func (b *Buf[T]) Remove(i int) T {
	v := *b.At(i)
	for j := i + 1; j < b.n; { // shift [i+1, n) down by one
		s := b.Span(j)
		*b.At(j - 1) = s[0]
		copy(s, s[1:])
		j += len(s)
	}
	b.Truncate(b.n - 1)
	return v
}

// shiftUp moves cells [lo, hi) to [lo+1, hi+1) (hi < Len).
func (b *Buf[T]) shiftUp(lo, hi int) {
	for j := hi; j > lo; {
		s := b.SpanBefore(j)
		s = s[len(s)-min(len(s), j-lo):]
		*b.At(j) = s[len(s)-1]
		copy(s[1:], s)
		j -= len(s)
	}
}

// DropFront clears the k oldest cells and moves the head past them.
func (b *Buf[T]) DropFront(k int) {
	if uint(k) > uint(b.n) {
		b.outOfRange("drop of", k)
	}
	b.clear(0, k)
	if b.n -= k; b.n == 0 {
		b.head = 0
		return
	}
	// A piece the head has left goes right after the newest cell, unless
	// live cells wrap into it: the tail reuses the memory the head vacated.
	for b.head += k; b.head >= len(b.pieces[0]); b.f, b.fv = nil, 0 {
		f, at := b.pieces[0], len(b.pieces)-1
		b.head -= len(f)
		if end := b.head + b.n; end <= b.c-len(f) {
			for at = 1; end > len(b.pieces[at]); at++ {
				end -= len(b.pieces[at])
			}
		}
		copy(b.pieces, b.pieces[1:at+1])
		b.pieces[at] = f
	}
}

// Truncate clears the cells from k on, keeping the first k.
func (b *Buf[T]) Truncate(k int) {
	if uint(k) > uint(b.n) {
		b.outOfRange("truncation at", k)
	}
	b.clear(k, b.n)
	if b.n = k; k == 0 {
		b.head = 0
	}
}

// clear zeroes cells [i, j).
func (b *Buf[T]) clear(i, j int) {
	for i < j {
		s := b.Span(i)
		s = s[:min(len(s), j-i)]
		clear(s)
		i += len(s)
	}
}

func (b *Buf[T]) outOfRange(what string, i int) {
	panic(fmt.Sprintf("slide: %s %d out of range with length %d", what, i, b.n))
}

func (b *Buf[T]) virt(i int) int {
	if v := b.head + i; v < b.c {
		return v
	}
	return b.head + i - b.c
}

// locate returns the piece holding virtual position v, and v's offset in
// it, walking from the nearer end; the piece becomes f.
func (b *Buf[T]) locate(v int) ([]T, int) {
	k, start := 0, 0
	if 2*v < b.c {
		for ; v-start >= len(b.pieces[k]); k++ {
			start += len(b.pieces[k])
		}
	} else {
		for k, start = len(b.pieces), b.c; v < start; {
			k--
			start -= len(b.pieces[k])
		}
	}
	b.f, b.fv = b.pieces[k], start
	return b.f, v - start
}

// grow adds a piece, all its allocation's cells, to the full ring's seam.
func (b *Buf[T]) grow() {
	size := max(firstPiece, b.c)
	if b.c >= maxPiece {
		a := maxPiece // append's next capacity past c
		for a <= b.c {
			a += (a + 3*maxPiece) / 4
		}
		size = min(maxPiece, a-b.c)
	}
	p := slices.Grow([]T(nil), size)
	p = p[:cap(p)]
	b.c += len(p)
	if b.pieces == nil {
		b.pieces = make([][]T, 0, 8) // 8 pieces reach 512 cells: one index allocation, mostly
	}
	if h := b.head; h > 0 { // the cells before the head are the newest
		b.pieces = append(b.pieces, b.pieces[0][:h:h])
		b.pieces[0], b.head = b.pieces[0][h:], 0
	}
	b.pieces = append(b.pieces, p) // push's locate re-aims the stale f
}
