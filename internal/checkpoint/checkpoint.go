// Package checkpoint defines the checkpointing strategies DEFINED-RB can
// run with and their cost models, mirroring the paper's implementation
// section (§3) and the optimizations evaluated in §5.2:
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
//     delivery the engine stores a full deep copy of the application
//     state plus a copy of the annotation counters, and rollback hands
//     that copy back to the application, which adopts it — as the paper's
//     rollback resumes the forked child rather than copying it again. The
//     copy goes into a recycled snapshot, one the stack let go of (settled,
//     undone, or carrying the state the application gave up in Restore),
//     through api.Recyclable's CloneInto, so like the paper's fork it pays
//     for the copy and not for fresh memory; a state without the
//     capability is cloned (api.State.Clone). Spares last one run: the
//     engine drops them when Run or RunQuiescent returns. Checkpoint cost
//     scales with state size — at every delivery, whether or not a
//     rollback ever happens.
//
//   - MI is the undo-journal implementation (paper §3's intercepted
//     memory writes, ~13× cheaper in Figure 7a). Applications that
//     implement api.Journaled record a compact (slot, old-value) undo
//     entry per mutation into an internal/journal log; a checkpoint is
//     then an O(1) mark pair, Marks (application journal position +
//     annotation counter journal position), and rollback replays the
//     journal backward to the mark. Checkpoint cost scales with the bytes *dirtied* per
//     delivery, not with topology size. Applications without the
//     capability silently fall back to FK-style clones, so third-party
//     apps keep working under the default strategy — and only they and
//     test doubles: everything a scenario.Plan builds, multi-protocol
//     composites included, journals.
//
// The checkpoint stack itself lives in the rollback engine's per-node
// window (internal/rollback), aligned with the node's history window: one
// typed stack per node, of mark pairs or of snapshots, chosen once when the
// engine is built. Settlement is the moment mark checkpoints die, which is
// when the engine compacts the journal prefix older than the new oldest
// live mark.
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
	"defined/internal/vtime"
)

// Marks is an MI checkpoint, one per speculative delivery on the rollback
// window's stack: the application's and the sender's undo-journal positions.
type Marks struct {
	App, Counters journal.Mark
}

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
