package rollback

import (
	"defined/internal/annotate"
	"defined/internal/checkpoint"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/slide"
)

// window is a node's history window — arrivals in ordering-function order,
// delivered speculatively — and the checkpoint stack aligned with it:
// checkpoint i is the state before window entry i was delivered. The state
// is the application's plus the sender's annotation counters (s_i and the
// per-link send sequences), so a replay regenerates messages with identical
// annotations.
//
// A node checkpoints one way for the whole run, fixed by New. japp is
// non-nil when the application supports MI undo-journal checkpointing and
// the engine's strategy selects it: the stack is then marks, O(1) journal
// positions, and undo rewinds the journals in place. Otherwise it is snaps,
// full copies (FK mode by design; under MI only apps from outside
// internal/scenario — third parties, test doubles — fall back to them), and
// undo hands the snapshot to the application, as an FK rollback resumes the
// forked child. serial numbers deliveries; hw is the window's high-water
// mark, the bound the fault checker compares against (a wedged window grows
// without bound; a healthy one is pruned by settlement).
//
// spares holds the snapshots the stack let go of — settled, truncated by an
// undo, or the one an undo handed over, which then carries the state the
// application let go of — for stamp to copy into instead of allocating (an
// api.Recyclable state copies into the spare's own storage). They last one
// run: Engine.Run and RunQuiescent drop them before returning, so a window
// never holds more snapshots than its stack's high-water mark did, and a
// network at rest holds only its stacks. Trimming them to the stack depth
// at each settle pass instead raised sprint_flap_ref (bench/) from 0.477
// to 3.07 allocations per committed delivery: the stack regrows.
type window struct {
	*history.Window
	marks  slide.Buf[checkpoint.Marks]
	snaps  slide.Buf[*shimState]
	spares []*shimState
	japp   api.Journaled
	serial uint64
	hw     int

	app    api.Application
	sender *annotate.Sender
	stats  *Stats
}

// shimState is a full-snapshot checkpoint: app state and sender counters.
type shimState struct {
	app      api.State
	counters annotate.Counters
}

// depth reports the number of checkpoints on the node's stack.
func (w *window) depth() int {
	if w.japp != nil {
		return w.marks.Len()
	}
	return w.snaps.Len()
}

// insert adds an arrival's cell in key order, or counts it as a duplicate.
func (w *window) insert(c *history.Cell) (pos int, dup bool) {
	if pos, dup = w.InsertCell(c); dup {
		w.stats.Duplicates++
	}
	w.hw = max(w.hw, w.Len())
	return pos, dup
}

// stamp checkpoints the state before delivering entry i and gives the
// entry a fresh delivery serial, which it returns.
func (w *window) stamp(i int) uint64 {
	if w.depth() != i {
		panic("rollback: checkpoint stack misaligned with window")
	}
	if w.japp != nil {
		w.marks.Push(checkpoint.Marks{App: w.japp.JournalMark(), Counters: w.sender.JournalMark()})
	} else {
		w.snaps.Push(w.capture())
	}
	w.serial++
	w.SetSerial(i, w.serial)
	return w.serial
}

// capture copies the application state and the sender counters into a
// spare snapshot, or into a new one when no spare is left.
func (w *window) capture() *shimState {
	var st *shimState
	if n := len(w.spares); n > 0 {
		st = w.spares[n-1]
		w.spares[n-1] = nil
		w.spares = w.spares[:n-1]
	} else {
		st = new(shimState)
	}
	live := w.app.State()
	if r, ok := live.(api.Recyclable); ok {
		st.app = r.CloneInto(st.app)
	} else {
		st.app = live.Clone()
	}
	w.sender.CopyCounters(&st.counters)
	return st
}

// spare keeps the stacked snapshots at positions from to to-1 as spares;
// the caller then drops them from the stack.
func (w *window) spare(from, to int) {
	for i := from; i < to; i++ {
		w.spares = append(w.spares, *w.snaps.At(i))
	}
}

// undo restores the checkpoint taken before window position pos and
// rewinds the stack to it. It returns the serial of the first delivery
// undone, 0 if none was: every entry at >= pos that has been delivered (a
// freshly inserted entry has serial 0 and was never delivered; delivered
// entries have serial >= 1). Serials increase with window position —
// replays stamp the suffix in window order — so the first one found is the
// smallest.
func (w *window) undo(pos int) (first uint64) {
	for i := pos; i < w.Len(); i++ {
		if s := w.At(i).Serial; s != 0 {
			if first == 0 {
				first = s
			}
			w.stats.RolledBack++
		}
	}
	if w.japp != nil {
		m := *w.marks.At(pos)
		w.japp.JournalRewind(m.App)
		w.sender.JournalRewind(m.Counters)
		w.marks.Truncate(pos)
		return first
	}
	// The snapshot leaves the stack here, so the application adopts it
	// uncopied; the replay's stamp at pos copies afresh. The snapshot
	// becomes a spare carrying the state the application let go of, which
	// only a Recyclable state promises to do.
	st := *w.snaps.At(pos)
	w.spare(pos+1, w.snaps.Len())
	w.snaps.Truncate(pos)
	prev := w.app.State()
	w.app.Restore(st.app)
	w.sender.RestoreCounters(st.counters)
	st.app = nil
	if r, ok := prev.(api.Recyclable); ok {
		st.app = r
	}
	w.spares = append(w.spares, st)
	return first
}

// retire drops the n oldest entries (settled) with their checkpoints.
func (w *window) retire(n int) {
	w.Retire(n)
	if w.japp == nil {
		w.spare(0, n)
		w.snaps.DropFront(n)
		return
	}
	w.marks.DropFront(n)
	w.compactJournals()
}

// reset loses the speculative suffix in a crash: entries release their
// messages, the checkpoint stack empties with them, and with nothing left
// to rewind to the journals compact to their heads.
func (w *window) reset() {
	w.Retire(w.Len())
	w.spare(0, w.snaps.Len())
	w.snaps.Truncate(0)
	w.marks.Truncate(0)
	w.compactJournals()
}

// compactJournals discards undo-journal prefixes no surviving checkpoint
// can reach: settlement just dropped the oldest checkpoints, so the new
// oldest mark bounds every future rewind. With the stack empty, everything
// recorded so far is unreachable and the journals compact to their heads.
func (w *window) compactJournals() {
	if w.japp == nil {
		return
	}
	if w.marks.Len() > 0 {
		m := w.marks.At(0)
		w.japp.JournalCompact(m.App)
		w.sender.JournalCompact(m.Counters)
		return
	}
	w.japp.JournalCompact(w.japp.JournalMark())
	w.sender.JournalCompact(w.sender.JournalMark())
}

// held passes note every message the window references.
func (w *window) held(note func(*msg.Message)) {
	for i := 0; i < w.Len(); i++ {
		note(w.At(i).Msg)
	}
}
