package rollback

import (
	"defined/internal/annotate"
	"defined/internal/checkpoint"
	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/routing/api"
)

// window is a node's history window — arrivals in ordering-function order,
// delivered speculatively — and the checkpoint stack aligned with it:
// ckpts[i] is the state before window entry i was delivered. The state is
// the application's plus the sender's annotation counters (s_i and the
// per-link send sequences), so a replay regenerates messages with identical
// annotations.
//
// japp is non-nil when the application supports MI undo-journal
// checkpointing and the engine's strategy selects it: checkpoints are then
// O(1) journal marks instead of full clones, and restore rewinds the
// journal in place. FK mode clones by design; under MI only apps from
// outside internal/scenario (third parties, test doubles) do. serial
// numbers deliveries; hw is the window's high-water mark, the bound the
// fault checker compares against (a wedged window grows without bound; a
// healthy one is pruned by settlement).
type window struct {
	*history.Window
	ckpts  checkpoint.Keeper
	japp   api.Journaled
	serial uint64
	hw     int

	app    api.Application
	sender *annotate.Sender
	stats  *Stats
}

// shimState is everything a full-snapshot checkpoint must capture beyond
// the simulator: the application state plus the annotation counters. MI
// checkpoints replace it with a journal-mark pair.
type shimState struct {
	app      api.State
	counters annotate.Counters
}

// insert adds an arrival in key order, or counts it as a duplicate.
func (w *window) insert(e *history.Entry) (pos int, dup bool) {
	if pos, dup = w.Insert(*e); dup {
		w.stats.Duplicates++
	}
	w.hw = max(w.hw, w.Len())
	return pos, dup
}

// stamp checkpoints the state before delivering entry i and gives the
// entry a fresh delivery serial, which it returns.
func (w *window) stamp(i int) uint64 {
	if w.ckpts.Len() != i {
		panic("rollback: checkpoint stack misaligned with window")
	}
	w.ckpts.Push(w.capture())
	w.serial++
	w.SetSerial(i, w.serial)
	return w.serial
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
	w.restore(w.ckpts.At(pos))
	w.ckpts.TruncateFrom(pos)
	return first
}

// retire drops the n oldest entries (settled) with their checkpoints.
func (w *window) retire(n int) {
	w.Retire(n)
	w.ckpts.DropFirst(n)
	w.compactJournals()
}

// capture takes one checkpoint: an O(1) mark pair when the app journals
// its mutations (MI), a full clone otherwise (FK or fallback).
func (w *window) capture() checkpoint.Checkpoint {
	if w.japp != nil {
		return checkpoint.Checkpoint{
			App:      w.japp.JournalMark(),
			Counters: w.sender.JournalMark(),
		}
	}
	return checkpoint.Checkpoint{State: &shimState{
		app:      w.app.State().Clone(),
		counters: w.sender.SnapshotCounters(),
	}}
}

// restore reinstalls checkpoint c: journal rewind for marks, clone
// reinstatement for full snapshots.
func (w *window) restore(c checkpoint.Checkpoint) {
	if c.IsMark() {
		w.japp.JournalRewind(c.App)
		w.sender.JournalRewind(c.Counters)
		return
	}
	st := c.State.(*shimState)
	// The checkpoint stack keeps ownership of st: hand the app a clone
	// it can adopt and mutate freely.
	w.app.Restore(st.app.Clone())
	w.sender.RestoreCounters(st.counters)
}

// compactJournals discards undo-journal prefixes no surviving checkpoint
// can reach: settlement just dropped the oldest checkpoints, so the new
// oldest mark bounds every future rewind. With the stack empty, everything
// recorded so far is unreachable and the journals compact to their heads.
func (w *window) compactJournals() {
	if w.japp == nil {
		return
	}
	if app, ctr, ok := w.ckpts.OldestMarks(); ok {
		w.japp.JournalCompact(app)
		w.sender.JournalCompact(ctr)
		return
	}
	if w.ckpts.Len() == 0 {
		w.japp.JournalCompact(w.japp.JournalMark())
		w.sender.JournalCompact(w.sender.JournalMark())
	}
}

// reset loses the speculative suffix in a crash: entries release their
// messages, the checkpoint stack empties with them, and with nothing left
// to rewind to the journals compact to their heads.
func (w *window) reset() {
	w.Retire(w.Len())
	w.ckpts.TruncateFrom(0)
	w.compactJournals()
}

// held passes note every message the window references.
func (w *window) held(note func(*msg.Message)) {
	for i := 0; i < w.Len(); i++ {
		note(w.At(i).Msg)
	}
}
