// Package history implements the per-node sliding-window message history
// DEFINED-RB maintains (paper §2.2, "Detecting if a rollback is
// necessary"): every received message (and timer batch) is inserted into a
// window kept sorted by the ordering function; an arrival that lands
// anywhere but the end of the window means the speculative delivery order
// has diverged and the entries after the insertion point must be rolled
// back. Entries retire from the front of the window once no message that
// could sort before them can still arrive (two times the maximum
// propagation delay, per the paper).
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

// Entry is one element of the window: an application message, a timer
// batch pseudo-entry, or an external event application (for the latter two
// Msg is nil; externals carry their payload behind Ext). A cell is 80 bytes
// and every arrival costs one in the window, one in the deferral buffer and
// their insertion memmoves, so what only the rare external needs sits
// behind one pointer.
type Entry struct {
	Key       ordering.Key
	Msg       *msg.Message // nil for timer batches and externals
	Ext       *External    // non-nil for external-event entries only
	ArrivedAt vtime.Time   // physical arrival time, drives retirement
	// Serial is the delivery serial number the rollback engine assigns
	// each time the entry is (re-)delivered; it links sent messages to
	// the delivery that caused them.
	Serial uint64
}

// External is what an external-event entry carries: the event payload and
// its in-group time offset — the d_i anchor for the causal chains it
// starts (recorded for replay). Immutable once the entry is inserted.
type External struct {
	Event  api.ExternalEvent
	Offset vtime.Duration
}

// IsTimer reports whether the entry is a timer batch.
func (e Entry) IsTimer() bool { return e.Key.IsTimer() }

// IsExternal reports whether the entry is an external event.
func (e Entry) IsExternal() bool { return e.Key.IsExternal() }

// String renders the entry for debugging.
func (e Entry) String() string {
	if e.Msg == nil {
		return fmt.Sprintf("%v@%v", e.Key, e.ArrivedAt)
	}
	return fmt.Sprintf("%v@%v", e.Msg, e.ArrivedAt)
}

// Window is the sorted sliding-window history of one node. The invariant
// is that entries are always in ordering-function order, which equals the
// order in which they have been (re-)delivered to the application.
//
// The window participates in the refcounted message lifecycle (msg package
// comment): Insert retains an entry's message and Retire/RemoveAt release
// it, so a message stays live exactly as long as some window can still
// roll it back. Entries live in a slide.Buf: growth copies none, and
// Retire moves a head, so a window sliding steadily allocates nothing.
type Window struct {
	f       ordering.Func
	entries slide.Buf[Entry]
}

// New creates an empty window ordered by f.
func New(f ordering.Func) *Window {
	return &Window{f: f}
}

// Len reports the number of live entries.
func (w *Window) Len() int { return w.entries.Len() }

// At returns the entry at position i in delivered order: the window's own
// cell, not a copy — read-only, valid until the next Insert, RemoveAt or
// Retire. It panics unless 0 <= i < Len.
func (w *Window) At(i int) *Entry { return w.entries.At(i) }

// Insert places e into the window at its ordering position. It returns the
// position and whether the entry was a duplicate (already present with an
// identical key), in which case the window is unchanged and pos is the
// existing entry's index.
//
// The caller interprets pos: pos == Len()-1 (appended at the end) means the
// arrival is in order and can be delivered speculatively; anything earlier
// means every entry now after pos was delivered out of order and must be
// rolled back and replayed.
func (w *Window) Insert(e Entry) (pos int, dup bool) {
	e.Msg.CheckLive("history.Insert")
	// Most arrivals are in order, so try the tail before searching.
	pos = w.entries.Len()
	if pos > 0 && w.f.Compare(w.entries.At(pos-1).Key, e.Key) >= 0 {
		pos = sort.Search(pos, func(i int) bool {
			return w.f.Compare(w.entries.At(i).Key, e.Key) >= 0
		})
		if w.f.Compare(w.entries.At(pos).Key, e.Key) == 0 {
			return pos, true
		}
	}
	e.Msg.Retain()
	w.entries.Insert(pos, e)
	return pos, false
}

// SetSerial stamps the delivery serial of the entry at position i.
func (w *Window) SetSerial(i int, serial uint64) { w.entries.At(i).Serial = serial }

// RemoveAt deletes and returns the entry at position i ("unsend" received
// for a message we had accepted). The window's reference on the entry's
// message is released: the returned Entry is readable but must not be
// retained past the caller's frame.
func (w *Window) RemoveAt(i int) Entry {
	e := w.entries.Remove(i)
	e.Msg.Release()
	return e
}

// FindMsg returns the position of the entry carrying the message with id,
// or -1. Timer batches never match.
func (w *Window) FindMsg(id msg.ID) int {
	for i := 0; i < w.entries.Len(); {
		s := w.entries.Span(i)
		for j := range s {
			if m := s[j].Msg; m != nil && m.ID == id {
				return i + j
			}
		}
		i += len(s)
	}
	return -1
}

// FindKey returns the position of the entry with exactly key, or -1.
func (w *Window) FindKey(key ordering.Key) int {
	pos := sort.Search(w.entries.Len(), func(i int) bool {
		return w.f.Compare(w.entries.At(i).Key, key) >= 0
	})
	if pos < w.entries.Len() && w.f.Compare(w.entries.At(pos).Key, key) == 0 {
		return pos
	}
	return -1
}

// Retire removes the n oldest entries from the front of the window
// (settlement). Retired entries can no longer be rolled back; the caller
// scans the prefix itself — typically for entries whose arrival predates
// the settle cutoff — and must stop at the first entry newer than the
// cutoff even if later entries are older: delivered order is what matters
// for rollback, and a suffix must stay intact. The rollback engine folds
// that scan into its settled-log bookkeeping so the prefix is walked
// exactly once.
func (w *Window) Retire(n int) {
	if n <= 0 {
		return
	}
	for i := range n {
		w.entries.At(i).Msg.Release()
	}
	w.entries.DropFront(n)
}

// Keys returns the keys of all live entries in delivered order (testing
// helper).
func (w *Window) Keys() []ordering.Key {
	out := make([]ordering.Key, w.entries.Len())
	for i := range out {
		out[i] = w.entries.At(i).Key
	}
	return out
}

// CheckInvariant verifies the window is sorted; it returns an error
// describing the first violation (testing/debug helper).
func (w *Window) CheckInvariant() error {
	for i := 1; i < w.entries.Len(); i++ {
		if prev, cur := w.entries.At(i-1).Key, w.entries.At(i).Key; w.f.Compare(prev, cur) >= 0 {
			return fmt.Errorf("history: window out of order at %d: %v >= %v", i, prev, cur)
		}
	}
	return nil
}
