// Package history implements the per-node sliding-window message history
// DEFINED-RB maintains (paper §2.2, "Detecting if a rollback is
// necessary"): every received message (and timer batch) is inserted into a
// window kept sorted by the ordering function; an arrival that lands
// anywhere but the end of the window means the speculative delivery order
// has diverged and the entries after the insertion point must be rolled
// back. Entries retire from the front of the window once no message that
// could sort before them can still arrive (two times the maximum
// propagation delay, per the paper).
//
// The window keeps each arrival as a Cell holding the key's ordering.Rank,
// not a copy of the key: ranks decide nearly every comparison, and a tie
// derives the keys from what the cells point to (Cell.Key).
package history

import (
	"fmt"
	"sort"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/slide"
	"defined/internal/vtime"
)

// Entry is an arrival as a caller hands it to Insert: an application
// message, a timer batch pseudo-entry, or an external event application
// (for the latter two Msg is nil; externals carry their payload behind
// Ext). Key must be the key the contents derive (see Cell.Key): KeyOf(Msg)
// for a message, Ext.Seq as an external's Seq.
type Entry struct {
	Key       ordering.Key
	Msg       *msg.Message // nil for timer batches and externals
	Ext       *External    // non-nil for external-event entries only
	ArrivedAt vtime.Time   // physical arrival time, drives retirement
}

// Cell ranks the arrival under f: the cell a window stores for it.
func (e *Entry) Cell(f ordering.Func) Cell {
	return Cell{Rank: f.Rank(e.Key), Msg: e.Msg, Ext: e.Ext, ArrivedAt: e.ArrivedAt}
}

// Cell is one element of the window as it is stored: the arrival's rank
// under the window's ordering in place of its key, which the message
// already carries and a timer or external rank all but encodes. A cell is
// 48 bytes, and every arrival costs one in the window, one in the
// deferral buffer and their insertion memmoves, so what only the rare
// external needs sits behind one pointer.
type Cell struct {
	Rank      ordering.Rank
	Msg       *msg.Message // nil for timer batches and externals
	Ext       *External    // non-nil for external-event entries only
	ArrivedAt vtime.Time   // physical arrival time, drives retirement
	// Serial is the delivery serial number the rollback engine assigns
	// each time the entry is (re-)delivered; it links sent messages to
	// the delivery that caused them.
	Serial uint64
}

// External is what an external-event entry carries: the event payload,
// its in-group time offset — the d_i anchor for the causal chains it
// starts (recorded for replay) — and its in-group sequence, the one field
// of its key the rank leaves out. Immutable once the entry is inserted.
type External struct {
	Event  api.ExternalEvent
	Offset vtime.Duration
	Seq    uint64
}

// Key derives the cell's ordering key: from its message, or else from its
// rank (and an external's Seq). It reads the message, so it is valid only
// while the cell holds a reference on it.
func (c *Cell) Key() ordering.Key {
	if c.Msg != nil {
		return ordering.KeyOf(c.Msg)
	}
	var seq uint64
	if c.Ext != nil {
		seq = c.Ext.Seq
	}
	return ordering.LocalKey(c.Rank, seq)
}

// String renders the cell for debugging.
func (c *Cell) String() string {
	if c.Msg == nil {
		return fmt.Sprintf("%v@%v", c.Key(), c.ArrivedAt)
	}
	return fmt.Sprintf("%v@%v", c.Msg, c.ArrivedAt)
}

// compare orders cell a against cell b under f, the ordering their ranks
// were taken under: the ranks decide wherever they differ, and only a tie
// derives the keys.
func compare(f ordering.Func, a, b *Cell) int {
	if a.Rank == b.Rank {
		return f.Compare(a.Key(), b.Key())
	}
	return rankOrder(a.Rank, b.Rank)
}

// CompareKey orders cell c against key k of rank r under f, deriving c's
// key only on a rank tie.
func CompareKey(f ordering.Func, c *Cell, k ordering.Key, r ordering.Rank) int {
	if c.Rank == r {
		return f.Compare(c.Key(), k)
	}
	return rankOrder(c.Rank, r)
}

// rankOrder orders two ranks that differ.
func rankOrder(a, b ordering.Rank) int {
	if a.Less(b) {
		return -1
	}
	return 1
}

// Window is the sorted sliding-window history of one node. The invariant
// is that cells are always in ordering-function order, which equals the
// order in which they have been (re-)delivered to the application.
//
// The window participates in the refcounted message lifecycle (msg package
// comment): an insertion retains a cell's message and Retire/RemoveAt
// release it, so a message stays live exactly as long as some window can
// still roll it back. Cells live in a slide.Buf: growth copies none, and
// Retire moves a head, so a window sliding steadily allocates nothing.
type Window struct {
	f     ordering.Func
	cells slide.Buf[Cell]
}

// New creates an empty window ordered by f.
func New(f ordering.Func) *Window {
	return &Window{f: f}
}

// Len reports the number of live cells.
func (w *Window) Len() int { return w.cells.Len() }

// At returns the cell at position i in delivered order: the window's own
// cell, not a copy — read-only, valid until the next insertion, RemoveAt or
// Retire. It panics unless 0 <= i < Len.
func (w *Window) At(i int) *Cell { return w.cells.At(i) }

// Insert ranks e and places it into the window at its ordering position
// (InsertCell).
func (w *Window) Insert(e Entry) (pos int, dup bool) {
	c := e.Cell(w.f)
	return w.InsertCell(&c)
}

// InsertCell places a copy of c, ranked under the window's ordering, into
// the window at its ordering position. It returns the position and whether
// the cell was a duplicate (already present with an identical key), in
// which case the window is unchanged and pos is the existing cell's index.
//
// The caller interprets pos: pos == Len()-1 (appended at the end) means the
// arrival is in order and can be delivered speculatively; anything earlier
// means every cell now after pos was delivered out of order and must be
// rolled back and replayed.
func (w *Window) InsertCell(c *Cell) (pos int, dup bool) {
	c.Msg.CheckLive("history.Insert")
	// Most arrivals are in order, so try the tail before searching.
	pos = w.cells.Len()
	if pos > 0 && compare(w.f, w.cells.At(pos-1), c) >= 0 {
		pos = sort.Search(pos, func(i int) bool {
			return compare(w.f, w.cells.At(i), c) >= 0
		})
		if compare(w.f, w.cells.At(pos), c) == 0 {
			return pos, true
		}
	}
	c.Msg.Retain()
	w.cells.Insert(pos, *c)
	return pos, false
}

// SetSerial stamps the delivery serial of the cell at position i.
func (w *Window) SetSerial(i int, serial uint64) { w.cells.At(i).Serial = serial }

// RemoveAt deletes the cell at position i ("unsend" received for a message
// we had accepted) and returns its key. The window's reference on the
// cell's message is released, so the key is derived first: the cell itself
// is not handed out.
func (w *Window) RemoveAt(i int) ordering.Key {
	c := w.cells.Remove(i)
	k := c.Key()
	c.Msg.Release()
	return k
}

// FindMsg returns the position of the cell carrying the message with id,
// or -1. Timer batches never match.
func (w *Window) FindMsg(id msg.ID) int {
	for i := 0; i < w.cells.Len(); {
		s := w.cells.Span(i)
		for j := range s {
			if m := s[j].Msg; m != nil && m.ID == id {
				return i + j
			}
		}
		i += len(s)
	}
	return -1
}

// Retire removes the n oldest cells from the front of the window
// (settlement). Retired cells can no longer be rolled back; the caller
// scans the prefix itself — typically for cells whose arrival predates
// the settle cutoff — and must stop at the first cell newer than the
// cutoff even if later cells are older: delivered order is what matters
// for rollback, and a suffix must stay intact. The rollback engine folds
// that scan into its settled-log bookkeeping so the prefix is walked
// exactly once.
func (w *Window) Retire(n int) {
	if n <= 0 {
		return
	}
	for i := range n {
		w.cells.At(i).Msg.Release()
	}
	w.cells.DropFront(n)
}

// Keys returns the keys of all live cells in delivered order.
func (w *Window) Keys() []ordering.Key {
	out := make([]ordering.Key, w.cells.Len())
	for i := range out {
		out[i] = w.cells.At(i).Key()
	}
	return out
}
