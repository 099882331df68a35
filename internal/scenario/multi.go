package scenario

// The multi-protocol composite: one node running several routing daemons
// (a border speaks OSPF into its AS and BGP across it; a gateway speaks
// OSPF and RIP). Each part sees only its role-filtered neighbor subset,
// so protocol domains stay disjoint on the shared substrate. Inputs fan
// out to every part — the daemons already ignore payloads and externals
// that are not theirs, which keeps dispatch free of type lists here.
//
// The composite journals by composition (api.Journaled): its parts record
// their own undo entries, so a checkpoint is one tuple of their marks —
// O(parts), nothing cloned. One delivery in five on a hier topology lands
// on a composite, so cloning them was a fifth of the run (PR 11 ledger).
// State/Restore stay for the engines that clone by design (FK, lockstep).

import (
	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/ospf"
	"defined/internal/routing/rip"
	"defined/internal/vtime"
)

// partFilter selects the neighbors one part may see (nil keeps all).
type partFilter func(nb api.Neighbor) bool

// part is what a composite needs of a daemon: a protocol that does not
// journal fails to compile in buildNode instead of silently cloning.
type part interface {
	api.Application
	api.Journaled
	api.RecomputeCached
}

// partMarks is one checkpoint: a mark per part (at most ospf, bgp, rip).
type partMarks [3]journal.Mark

type multiApp struct {
	parts   []part
	filters []partFilter
	outBuf  []msg.Out
	// marks[m] is the tuple JournalMark returned m for; undoing an entry
	// rewinds the parts to it.
	marks *journal.Log[partMarks]
}

func newMultiApp(parts []part, filters []partFilter) *multiApp {
	a := &multiApp{parts: parts, filters: filters}
	a.marks = journal.New(func(t partMarks) {
		for i, p := range a.parts {
			p.JournalRewind(t[i])
		}
	})
	return a
}

// JournalEnable implements api.Journaled.
func (a *multiApp) JournalEnable() {
	for _, p := range a.parts {
		p.JournalEnable()
	}
	a.marks.Enable()
}

// JournalMark implements api.Journaled: it records the parts' marks as the
// next tuple and returns that tuple's position.
func (a *multiApp) JournalMark() journal.Mark {
	var t partMarks
	for i, p := range a.parts {
		t[i] = p.JournalMark()
	}
	m := a.marks.Mark()
	a.marks.Record(t)
	return m
}

// JournalRewind implements api.Journaled: undoing tuples newest-first down
// to m leaves the parts at tuple m, which is re-recorded so m stays valid.
func (a *multiApp) JournalRewind(m journal.Mark) {
	a.marks.Rewind(m)
	a.JournalMark()
}

// JournalCompact implements api.Journaled: no rewind will pass tuple m, so
// each part compacts to its mark in it and older tuples go.
func (a *multiApp) JournalCompact(m journal.Mark) {
	t := a.marks.At(m)
	for i, p := range a.parts {
		p.JournalCompact(t[i])
	}
	a.marks.Compact(m)
}

// Init hands each part its filtered neighbor subset.
func (a *multiApp) Init(self msg.NodeID, neighbors []api.Neighbor) {
	for i, p := range a.parts {
		subset := neighbors
		if f := a.filters[i]; f != nil {
			subset = make([]api.Neighbor, 0, len(neighbors))
			for _, nb := range neighbors {
				if f(nb) {
					subset = append(subset, nb)
				}
			}
		}
		p.Init(self, subset)
	}
}

// gather appends copies of one part's outputs into the shared buffer (the
// part may reuse its own output slice on its next invocation).
func (a *multiApp) gather(outs []msg.Out) { a.outBuf = append(a.outBuf, outs...) }

func (a *multiApp) HandleMessage(m *msg.Message) []msg.Out {
	a.outBuf = a.outBuf[:0]
	for _, p := range a.parts {
		a.gather(p.HandleMessage(m))
	}
	return a.outBuf
}

func (a *multiApp) HandleTimer(now vtime.Time) []msg.Out {
	a.outBuf = a.outBuf[:0]
	for _, p := range a.parts {
		a.gather(p.HandleTimer(now))
	}
	return a.outBuf
}

func (a *multiApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	a.outBuf = a.outBuf[:0]
	for _, p := range a.parts {
		a.gather(p.HandleExternal(ev))
	}
	return a.outBuf
}

// multiState is the composite checkpoint: one entry per part, in part
// order.
type multiState struct {
	parts []api.State
}

// Clone implements api.State.
func (s *multiState) Clone() api.State { return s.CloneInto(nil) }

// CloneInto implements api.Recyclable: each part copies into dst's state
// for that part when it is recyclable, and clones otherwise.
func (s *multiState) CloneInto(dst api.State) api.State {
	out, _ := dst.(*multiState)
	if out == nil {
		out = &multiState{parts: make([]api.State, len(s.parts))}
	}
	for i, st := range s.parts {
		if r, ok := st.(api.Recyclable); ok {
			out.parts[i] = r.CloneInto(out.parts[i])
		} else {
			out.parts[i] = st.Clone()
		}
	}
	return out
}

func (a *multiApp) State() api.State {
	st := &multiState{parts: make([]api.State, len(a.parts))}
	for i, p := range a.parts {
		st.parts[i] = p.State()
	}
	return st
}

func (a *multiApp) Restore(st api.State) {
	ms := st.(*multiState)
	for i, p := range a.parts {
		p.Restore(ms.parts[i])
	}
}

// RouteCacheStats implements api.RecomputeCached by summing the parts'
// counters.
func (a *multiApp) RouteCacheStats() api.RouteCacheStats {
	var sum api.RouteCacheStats
	for _, p := range a.parts {
		st := p.RouteCacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Skipped += st.Skipped
	}
	return sum
}

// SetRouteCaching implements api.RecomputeCached by forwarding to every
// part.
func (a *multiApp) SetRouteCaching(enabled bool) {
	for _, p := range a.parts {
		p.SetRouteCaching(enabled)
	}
}

// OSPF unwraps the OSPF daemon from a plan-built application (nil if the
// node runs none). Checks and tests reach protocol state through these.
func OSPF(app api.Application) *ospf.Daemon {
	switch a := app.(type) {
	case *ospf.Daemon:
		return a
	case *multiApp:
		for _, p := range a.parts {
			if d, ok := p.(*ospf.Daemon); ok {
				return d
			}
		}
	}
	return nil
}

// BGP unwraps the BGP daemon from a plan-built application (nil if none).
func BGP(app api.Application) *bgp.Daemon {
	switch a := app.(type) {
	case *bgp.Daemon:
		return a
	case *multiApp:
		for _, p := range a.parts {
			if d, ok := p.(*bgp.Daemon); ok {
				return d
			}
		}
	}
	return nil
}

// RIP unwraps the RIP daemon from a plan-built application (nil if none).
func RIP(app api.Application) *rip.Daemon {
	switch a := app.(type) {
	case *rip.Daemon:
		return a
	case *multiApp:
		for _, p := range a.parts {
			if d, ok := p.(*rip.Daemon); ok {
				return d
			}
		}
	}
	return nil
}
