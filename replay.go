package defined

import (
	"io"

	"defined/internal/debugger"
	"defined/internal/lockstep"
)

// Replay is a debugging network driven by DEFINED-LS: it replays a
// Recording in lockstep, reproducing the production execution exactly,
// with interactive stepping.
type Replay struct {
	eng *lockstep.Engine
}

// Delivery is one replayed event (see lockstep.Delivery).
type Delivery = lockstep.Delivery

// StepInfo summarizes one lockstep round (see lockstep.StepInfo).
type StepInfo = lockstep.StepInfo

// NewReplay builds a debugging network over g replaying rec. The apps must
// be fresh instances of the same software the production network ran. The
// recording is the replay's only input: it names the ordering function and
// seed, and every node's delivery sequence is kept (DeliveredOrder).
// NewReplay reads rec once and keeps no reference to it, so one recording
// can feed concurrent replays; a recording whose beacon interval is not
// the engines' or whose chain bound is below 1 is an error naming the
// field.
func NewReplay(g *Topology, apps []Application, rec *Recording) (*Replay, error) {
	eng, err := lockstep.New(g, apps, rec)
	if err != nil {
		return nil, err
	}
	return &Replay{eng: eng}, nil
}

// StepEvent delivers the next single event (finest granularity).
func (r *Replay) StepEvent() (Delivery, bool) { return r.eng.StepEvent() }

// StepRound completes the current lockstep round (the unit the paper's
// response-time figures measure).
func (r *Replay) StepRound() bool { _, ok := r.eng.StepRound(); return ok }

// StepGroup completes the current beacon group.
func (r *Replay) StepGroup() bool { _, ok := r.eng.StepGroup(); return ok }

// RunToEnd replays everything remaining (or until a breakpoint fires) and
// returns the number of deliveries executed.
func (r *Replay) RunToEnd() int { return r.eng.RunToEnd() }

// Done reports whether the replay has finished.
func (r *Replay) Done() bool { return r.eng.Done() }

// SetBreakpoint pauses stepping before any delivery matching fn.
func (r *Replay) SetBreakpoint(fn func(Delivery) bool) { r.eng.SetBreakpoint(fn) }

// BreakpointHit returns the pending paused delivery, if any.
func (r *Replay) BreakpointHit() *Delivery { return r.eng.BreakpointHit() }

// App returns node id's application for state inspection.
func (r *Replay) App(id NodeID) Application { return r.eng.App(id) }

// Steps returns the per-round summaries (deliveries, modeled response
// times).
func (r *Replay) Steps() []StepInfo { return r.eng.Steps() }

// DeliveredOrder returns node id's delivery sequence rendered as strings,
// comparable entry by entry with the production Network.CommittedOrder.
func (r *Replay) DeliveredOrder(id NodeID) []string {
	return keyStrings(r.eng.DeliveredKeys(id))
}

// Debug runs an interactive command session (gdb-flavored; see
// internal/debugger for the command set) reading from in and writing to
// out. It returns the number of deliveries executed.
func (r *Replay) Debug(in io.Reader, out io.Writer) int {
	return debugger.New(r.eng, in, out).Run()
}
