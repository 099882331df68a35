// Package journal implements the undo-journal that backs real MI
// ("memory-intercepted") checkpointing: instead of cloning a node's whole
// state before every speculative delivery, the state records a compact
// undo entry for each mutation as it happens, a checkpoint is an O(1)
// position mark, and rollback restores by applying the journal backward to
// the mark. This is the classic incremental-checkpoint trade of execution
// replay systems — log the delta, not the world — and it makes checkpoint
// cost scale with the bytes *dirtied* per delivery rather than with
// topology size.
//
// A Log is generic over the client's entry type, so each daemon defines
// its own compact tagged-union undo record and pays no per-entry boxing or
// allocation in steady state: entries live in a slide.Buf, which grows
// without copying a record and compacts by moving its head. A record is
// copied on every mutation and kept until its checkpoint settles, so it
// should hold a tag, one integer and at most one pointer — never a slice
// header or an interface holding one (that boxes on every Record, enabled
// or not). Wide old values go to a second, typed Log that the first one's
// undo pops and whose Compact follows it (ospf's tables and holds).
//
// Marks are absolute positions (base + offset), so they survive Compact:
// settlement discards the journal prefix older than the oldest live
// checkpoint without invalidating younger marks.
//
// Recording is off until Enable is called. The rollback engine enables a
// journal only when it will actually take mark checkpoints (MI mode);
// baseline and lockstep executions leave it disabled so the journal never
// grows.
package journal

import (
	"fmt"

	"defined/internal/slide"
)

// Mark is an absolute journal position. A mark taken with Log.Mark remains
// valid until a Compact call passes it.
type Mark uint64

// Log is one client's undo journal. E is the client's undo record; undo
// applies one record to the live state, reversing the mutation that
// recorded it.
type Log[E any] struct {
	undo    func(E)
	entries slide.Buf[E]
	base    Mark // absolute position of entries.At(0)
	enabled bool
}

// New creates a journal that reverses mutations with undo.
func New[E any](undo func(E)) *Log[E] {
	return &Log[E]{undo: undo}
}

// Enable turns on undo recording. Disabled journals ignore Record, report
// a constant Mark, and make Rewind/Compact no-ops — the cheap stance for
// executions that never roll back.
func (l *Log[E]) Enable() { l.enabled = true }

// Enabled reports whether mutations are being recorded.
func (l *Log[E]) Enabled() bool { return l.enabled }

// Record appends one undo entry. Clients call it immediately before
// mutating the value the entry restores.
func (l *Log[E]) Record(e E) {
	if !l.enabled {
		return
	}
	l.entries.Push(e)
}

// Mark returns the current journal position. Rewinding to it restores the
// state exactly as it is now.
func (l *Log[E]) Mark() Mark { return l.base + Mark(l.entries.Len()) }

// Len reports the number of live (un-compacted) entries.
func (l *Log[E]) Len() int { return l.entries.Len() }

// Base returns the oldest live position (everything before it has been
// compacted away).
func (l *Log[E]) Base() Mark { return l.base }

// At returns the live entry at position m — the one a Mark taken just
// before its Record addresses. It panics outside [Base, Mark).
func (l *Log[E]) At(m Mark) E { return *l.entries.At(int(m - l.base)) }

// Rewind applies undo entries newest-first until the journal is back at
// mark m, restoring the client state to what it was when m was taken.
// Entries past m are discarded.
func (l *Log[E]) Rewind(m Mark) {
	if !l.enabled {
		return
	}
	if m < l.base || m > l.Mark() {
		panic(fmt.Sprintf("journal: rewind to %d outside [%d,%d]", m, l.base, l.Mark()))
	}
	n := int(m - l.base)
	for i := l.entries.Len() - 1; i >= n; i-- {
		l.undo(*l.entries.At(i))
	}
	l.entries.Truncate(n) // clears the undone records: they may reference memory
}

// Compact discards entries older than mark m: no caller will ever rewind
// past m again (its checkpoint has settled). Marks >= m stay valid.
func (l *Log[E]) Compact(m Mark) {
	if !l.enabled || m <= l.base {
		return
	}
	if m > l.Mark() {
		panic(fmt.Sprintf("journal: compact to %d beyond head %d", m, l.Mark()))
	}
	l.entries.DropFront(int(m - l.base))
	l.base = m
}
