// Package checkpoint defines the checkpointing strategies DEFINED-RB can
// run with, their cost models, and the per-node checkpoint stack (Keeper),
// mirroring the paper's implementation section (§3) and the optimizations
// evaluated in §5.2:
//
//   - rollback copy modes: FK (resume the fork — copy everything) vs MI
//     (intercepted memory writes — copy only changed bytes), Figure 7a;
//   - fork timings: TF (fork when the packet arrives, on the critical
//     path), PF (pre-fork after processing, in idle cycles; COW faults
//     still hit the next packet) and TM (pre-fork plus touching the heap so
//     COW copies also happen in idle time), Figure 7b.
//
// # FK/MI selection semantics
//
// Strategy.Mode selects how the rollback engine captures and restores
// state, and both modes are real implementations, not just cost models:
//
//   - FK is the reference implementation: before every speculative
//     delivery the engine stores a full deep clone of the application
//     state (api.State.Clone) plus a snapshot of the annotation counters,
//     and rollback reinstalls the clone. Checkpoint cost scales with
//     state size — at every delivery, whether or not a rollback ever
//     happens.
//
//   - MI is the undo-journal implementation (paper §3's intercepted
//     memory writes, ~13× cheaper in Figure 7a). Applications that
//     implement api.Journaled record a compact (slot, old-value) undo
//     entry per mutation into an internal/journal log; a checkpoint is
//     then an O(1) Checkpoint mark pair (application journal position +
//     annotation-counter journal position) and rollback replays the
//     journal backward to the mark. Checkpoint cost scales with the bytes
//     *dirtied* per delivery, not with topology size. Applications
//     without the capability silently fall back to FK-style clones, so
//     third-party apps keep working under the default strategy — and
//     only they and test doubles: everything a scenario.Plan builds,
//     multi-protocol composites included, journals.
//
// # The Keeper
//
// Keeper is the per-node checkpoint stack, aligned one-to-one with the
// node's history window: checkpoint i captures the state before the i-th
// live window entry was delivered. A Checkpoint is either a full snapshot
// (State != nil) or a mark pair, and the two kinds may coexist in one
// stack — the rollback engine dispatches per entry. The stack stores
// 16-byte mark pairs, not Checkpoint values: the snapshot column is a
// parallel slide.Buf (like the marks: growth copies nothing) that
// allocates only once a snapshot has been pushed (FK, or the clone
// fallback), so an MI delivery — whose State is always nil — pays for two
// marks and no empty interface. Settlement (Keeper.DropFirst) is the
// moment mark checkpoints die, which is when the engine compacts the
// journal prefix older than the new oldest live mark.
//
// Two consumers exist. The single-node microbenchmarks (experiments
// fig7a/7b/7c) exercise the strategies for real against a memstore-backed
// state and measure wall-clock nanoseconds. The network-level simulations
// (fig6/8) charge the equivalent *virtual-time* costs via CostModel so that
// checkpointing overhead shows up in convergence times the way it does on
// the paper's testbed — while the engine's actual capture/restore work now
// also follows the selected mode for real.
package checkpoint

import (
	"fmt"
	"strings"

	"defined/internal/journal"
	"defined/internal/slide"
	"defined/internal/vtime"
)

// Mode selects how rollback restores state.
type Mode uint8

const (
	// FK rolls back by resuming the forked checkpoint process (full
	// state copy).
	FK Mode = iota
	// MI rolls back by copying only the bytes that changed since the
	// checkpoint (manually intercepted memory writes).
	MI
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case FK:
		return "FK"
	case MI:
		return "MI"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Timing selects when the checkpoint fork is taken relative to packet
// processing.
type Timing uint8

const (
	// TF forks when the new packet arrives (checkpoint cost fully on the
	// critical path).
	TF Timing = iota
	// PF pre-forks after the previous packet is processed; the fork
	// itself happens in idle cycles but copy-on-write faults still hit
	// the next packet's critical path.
	PF
	// TM pre-forks and additionally touches heap memory during the
	// pre-fork, moving the COW copies off the critical path too.
	TM
)

// String names the timing as in the paper's figures.
func (t Timing) String() string {
	switch t {
	case TF:
		return "TF"
	case PF:
		return "PF"
	case TM:
		return "TM"
	default:
		return fmt.Sprintf("timing(%d)", uint8(t))
	}
}

// Strategy pairs a fork timing with a rollback copy mode.
type Strategy struct {
	Timing Timing
	Mode   Mode
}

// Default is the configuration the paper recommends after its optimization
// study: pre-fork with touched memory, dirty-byte rollback.
var Default = Strategy{Timing: TM, Mode: MI}

// String renders "TM/MI" style.
func (s Strategy) String() string { return s.Timing.String() + "/" + s.Mode.String() }

// ParseStrategy is the inverse of Strategy.String: it parses the
// "Timing/Mode" rendering ("TM/MI", "TF/FK", ...).
func ParseStrategy(s string) (Strategy, error) {
	var out Strategy
	timing, mode, ok := strings.Cut(s, "/")
	if !ok {
		return out, fmt.Errorf("bad checkpoint strategy %q (want Timing/Mode like \"TM/MI\")", s)
	}
	switch timing {
	case "TF":
		out.Timing = TF
	case "PF":
		out.Timing = PF
	case "TM":
		out.Timing = TM
	default:
		return out, fmt.Errorf("bad checkpoint timing %q (want TF, PF or TM)", timing)
	}
	switch mode {
	case "FK":
		out.Mode = FK
	case "MI":
		out.Mode = MI
	default:
		return out, fmt.Errorf("bad checkpoint mode %q (want FK or MI)", mode)
	}
	return out, nil
}

// CostModel is the virtual-time cost of checkpoint operations charged by
// the network-level simulation. Values are calibrated to the medians the
// paper reports in Figures 7a/7b (fork ≈ hundreds of µs on 2009-era
// hardware; FK rollback ≈ 8–15 ms; MI rollback ≈ 0.6 ms).
type CostModel struct {
	// PerMessage is added to every in-order message delivery.
	PerMessage vtime.Duration
	// RollbackFixed is the one-time cost of restoring a checkpoint.
	RollbackFixed vtime.Duration
	// RollbackPerReplay is added per message replayed after a restore.
	RollbackPerReplay vtime.Duration
}

// ModelFor returns the calibrated virtual cost model for a strategy.
func ModelFor(s Strategy) CostModel {
	m := CostModel{RollbackPerReplay: 120 * vtime.Microsecond}
	switch s.Timing {
	case TF:
		// Fork on the critical path: page-table duplication plus the
		// first COW burst.
		m.PerMessage = 400 * vtime.Microsecond
	case PF:
		// Fork pre-done; the packet still pays the COW faults.
		m.PerMessage = 180 * vtime.Microsecond
	case TM:
		// Fork and COW copies both pre-done in idle cycles.
		m.PerMessage = 40 * vtime.Microsecond
	}
	switch s.Mode {
	case FK:
		m.RollbackFixed = 8 * vtime.Millisecond
	case MI:
		m.RollbackFixed = 600 * vtime.Microsecond
	}
	return m
}

// Baseline is the cost model of the unmodified control-plane software
// ("XORP" series): no checkpointing, no rollback.
func Baseline() CostModel { return CostModel{} }

// Checkpoint is one entry of a Keeper stack, as Push takes it and At
// returns it. Exactly one representation is set:
//
//   - State != nil: a full snapshot (FK mode, or the clone fallback for
//     applications without the journal capability). The value is opaque
//     to the keeper; the rollback engine owns its meaning.
//   - State == nil: a mark pair (MI mode). App is the application
//     undo-journal position and Counters the annotation-counter journal
//     position at capture time.
type Checkpoint struct {
	State    any
	App      journal.Mark
	Counters journal.Mark
}

// IsMark reports whether the checkpoint is a journal-mark pair rather
// than a full snapshot.
func (c Checkpoint) IsMark() bool { return c.State == nil }

// marks is the stack cell every checkpoint has: 16 bytes, no pointers.
type marks struct {
	app, counters journal.Mark
}

// Keeper stores the checkpoint stack of one node, aligned with the node's
// history window: checkpoint i captures the application state *before* the
// i-th live window entry was delivered. Entries are full snapshots or
// journal marks per Checkpoint; the keeper never interprets them.
//
// Invariant: snaps is either empty (every stored checkpoint is a mark) or
// as long as marks, nil at mark positions.
type Keeper struct {
	marks slide.Buf[marks]
	snaps slide.Buf[any]
}

// Len reports the number of stored checkpoints.
func (k *Keeper) Len() int { return k.marks.Len() }

// Push appends a checkpoint.
func (k *Keeper) Push(c Checkpoint) {
	if c.State != nil || k.snaps.Len() > 0 {
		for k.snaps.Len() < k.marks.Len() {
			k.snaps.Push(nil) // the marks pushed before the first snapshot
		}
		k.snaps.Push(c.State)
	}
	k.marks.Push(marks{c.App, c.Counters})
}

// At returns checkpoint i. It panics unless 0 <= i < Len.
func (k *Keeper) At(i int) Checkpoint {
	c := Checkpoint{App: k.marks.At(i).app, Counters: k.marks.At(i).counters}
	if k.snaps.Len() > 0 {
		c.State = *k.snaps.At(i)
	}
	return c
}

// TruncateFrom drops checkpoints at positions >= i (rollback rewinds the
// stack alongside the history window). Dropped mark checkpoints need no
// further bookkeeping: the rewind that accompanies the truncation already
// discarded their journal suffix.
func (k *Keeper) TruncateFrom(i int) {
	k.marks.Truncate(i) // panics unless 0 <= i <= Len
	if k.snaps.Len() > 0 {
		k.snaps.Truncate(i)
	}
}

// DropFirst discards the n oldest checkpoints (history settlement). When
// mark checkpoints settle, the caller compacts the journals to the new
// oldest live mark (see OldestMarks).
func (k *Keeper) DropFirst(n int) {
	k.marks.DropFront(n) // panics unless 0 <= n <= Len
	if k.snaps.Len() > 0 {
		k.snaps.DropFront(n)
	}
}

// OldestMarks returns the mark pair of the oldest stored checkpoint —
// the compaction bound for the undo journals after settlement — and
// whether such a checkpoint exists. An empty stack (or one whose oldest
// entry is a full snapshot) yields ok == false; with an empty stack the
// caller may compact everything recorded so far.
func (k *Keeper) OldestMarks() (app, counters journal.Mark, ok bool) {
	if k.marks.Len() == 0 || (k.snaps.Len() > 0 && *k.snaps.At(0) != nil) {
		return 0, 0, false
	}
	return k.marks.At(0).app, k.marks.At(0).counters, true
}
