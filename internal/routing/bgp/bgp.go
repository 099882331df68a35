// Package bgp implements the BGP decision process exercised by the paper's
// first case study (§4): the ordering bug in XORP 0.4's path selection.
//
// The decision rules modeled are the three the case study depends on:
//
//  1. prefer the shortest AS path;
//  2. among paths from the *same neighboring AS*, prefer the lowest
//     multi-exit discriminator (MED) — note this rule compares only within
//     a group, which makes pairwise preference non-transitive;
//  3. prefer the lowest IGP distance to the egress.
//
// Two selection engines are provided. SelectCorrect re-runs the full
// decision over all valid paths, as BGP requires. SelectXORP04 reproduces
// the bug: an incoming path is compared pairwise against the current best
// only, so with the Figure 4 path triple (p2 beats p1, p3 beats p2, p1
// beats p3) the outcome depends on arrival order.
package bgp

import (
	"fmt"
	"maps"
	"sort"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/routecache"
	"defined/internal/vtime"
)

// Path is one candidate BGP path for a prefix. Paths are immutable once
// created.
type Path struct {
	Name       string `json:"name"` // human label, e.g. "p1"
	Prefix     string `json:"prefix"`
	ASPathLen  int    `json:"as_path_len"`
	NeighborAS int    `json:"neighbor_as"`
	MED        int    `json:"med"`
	IGPDist    int    `json:"igp_dist"`
}

// Announce is the external event that delivers an eBGP path at a border
// router (the recordings of the case study capture these at R1 and R2).
type Announce struct {
	Path Path `json:"path"`
}

// ExternalKind implements api.ExternalEvent.
func (Announce) ExternalKind() string { return "bgp-announce" }

// update is the iBGP wire payload propagating a path.
type update struct {
	Path Path
}

// PayloadEqual implements msg.PayloadEq (the rollback engine's
// lazy-cancellation matching, reflection-free). Path is comparable, so
// this is one struct compare.
func (u update) PayloadEqual(other any) bool {
	o, ok := other.(update)
	return ok && u == o
}

// Mode selects the decision engine.
type Mode uint8

const (
	// XORP04 reproduces the buggy incremental selection of XORP 0.4.
	XORP04 Mode = iota
	// Fixed re-runs the full decision process on every change.
	Fixed
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case XORP04:
		return "xorp-0.4"
	case Fixed:
		return "fixed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ---- decision process --------------------------------------------------------

// pairwiseBetter reports whether a beats b under the three case-study
// rules compared pairwise — the comparison XORP 0.4 applies between an
// incoming path and the current best. The MED rule only applies when both
// paths come from the same neighboring AS, which is what breaks
// transitivity.
func pairwiseBetter(a, b Path) bool {
	if a.ASPathLen != b.ASPathLen {
		return a.ASPathLen < b.ASPathLen
	}
	if a.NeighborAS == b.NeighborAS && a.MED != b.MED {
		return a.MED < b.MED
	}
	if a.IGPDist != b.IGPDist {
		return a.IGPDist < b.IGPDist
	}
	// Fully tied: deterministic tie-break so selection is stable.
	return a.Name < b.Name
}

// SelectCorrect runs the full decision process over all candidate paths:
// shortest AS path; then per-neighbor-AS MED elimination; then lowest IGP
// distance (the paper's description of the correct process).
func SelectCorrect(paths []Path) (Path, bool) {
	if len(paths) == 0 {
		return Path{}, false
	}
	// Rule 1: shortest AS path length.
	minLen := paths[0].ASPathLen
	for _, p := range paths[1:] {
		if p.ASPathLen < minLen {
			minLen = p.ASPathLen
		}
	}
	var survivors []Path
	for _, p := range paths {
		if p.ASPathLen == minLen {
			survivors = append(survivors, p)
		}
	}
	// Rule 2: within each neighboring-AS group, keep lowest MED.
	bestMED := map[int]int{}
	for _, p := range survivors {
		if m, ok := bestMED[p.NeighborAS]; !ok || p.MED < m {
			bestMED[p.NeighborAS] = p.MED
		}
	}
	var medSurvivors []Path
	for _, p := range survivors {
		if p.MED == bestMED[p.NeighborAS] {
			medSurvivors = append(medSurvivors, p)
		}
	}
	// Rule 3: lowest IGP distance, name tie-break.
	best := medSurvivors[0]
	for _, p := range medSurvivors[1:] {
		if p.IGPDist < best.IGPDist || (p.IGPDist == best.IGPDist && p.Name < best.Name) {
			best = p
		}
	}
	return best, true
}

// SelectXORP04 reproduces the buggy incremental selection: paths are
// considered in arrival order and each is compared only against the
// current best.
func SelectXORP04(arrivalOrder []Path) (Path, bool) {
	if len(arrivalOrder) == 0 {
		return Path{}, false
	}
	best := arrivalOrder[0]
	for _, p := range arrivalOrder[1:] {
		if pairwiseBetter(p, best) {
			best = p
		}
	}
	return best, true
}

// ---- daemon -------------------------------------------------------------------

// state is the daemon's checkpointable state: post-Init writes to these
// fields must go through the journaling setters below so MI rollback can
// rewind them.
//
//detlint:checkpointable
type state struct {
	// ribIn stores received paths per prefix, in arrival order (the
	// arrival order is what the XORP 0.4 bug is sensitive to).
	ribIn map[string][]Path
	// best is the currently selected path per prefix.
	best map[string]Path
	// epoch is the topology epoch: a commutative content hash of the
	// RIB-in's (prefix, path) pairs, bumped by every RIB-in change.
	// Journaled, so rewind un-bumps it.
	epoch uint64
	// decisions counts selection runs (experiments).
	decisions uint64
}

// Clone implements api.State.
func (s *state) Clone() api.State { return s.CloneInto(nil) }

// CloneInto implements api.Recyclable: dst's maps are refilled in place,
// and each prefix's path slice is copied into dst's slice for that prefix.
func (s *state) CloneInto(dst api.State) api.State {
	d, _ := dst.(*state)
	if d == nil {
		d = &state{
			ribIn: make(map[string][]Path, len(s.ribIn)),
			best:  make(map[string]Path, len(s.best)),
		}
	}
	maps.DeleteFunc(d.ribIn, func(k string, _ []Path) bool {
		_, ok := s.ribIn[k]
		return !ok
	})
	for k, v := range s.ribIn {
		d.ribIn[k] = append(d.ribIn[k][:0], v...)
	}
	clear(d.best)
	for k, v := range s.best {
		d.best[k] = v
	}
	d.epoch, d.decisions = s.epoch, s.decisions
	return d
}

// ---- undo journal (MI checkpointing) ----------------------------------------

// undoKind tags one journaled mutation of the daemon state.
type undoKind uint8

const (
	undoRibIn     undoKind = iota // ribIn[prefix] = paths / delete
	undoBest                      // best[prefix] = path / delete
	undoEpoch                     // epoch = u64
	undoDecisions                 // decisions = u64
)

// undoRec is one compact undo entry. Restored ribIn slice headers are safe
// to reinstate as-is: journal rewind is strictly LIFO, so any younger
// entry referencing a longer view of the same array is undone first.
type undoRec struct {
	kind   undoKind
	had    bool
	u64    uint64
	prefix string
	path   Path
	paths  []Path
}

// applyUndo reverses one recorded mutation.
func (s *state) applyUndo(u undoRec) {
	switch u.kind {
	case undoRibIn:
		if u.had {
			s.ribIn[u.prefix] = u.paths
		} else {
			delete(s.ribIn, u.prefix)
		}
	case undoBest:
		if u.had {
			s.best[u.prefix] = u.path
		} else {
			delete(s.best, u.prefix)
		}
	case undoEpoch:
		s.epoch = u.u64
	case undoDecisions:
		s.decisions = u.u64
	}
}

// Daemon is one iBGP speaker. Paths arrive either as external events
// (eBGP announcements at border routers) or as iBGP updates from peers;
// each new path triggers (re)selection, and best-path changes propagate to
// all peers except the one the path came from.
type Daemon struct {
	mode      Mode
	self      msg.NodeID
	neighbors []api.Neighbor
	st        *state

	// j is the undo journal backing MI checkpoints; disabled (and empty)
	// unless the substrate calls JournalEnable.
	j *journal.Log[undoRec]

	// cache memoizes (epoch, prefix) → selected path for the Fixed (full
	// decision) engine: the correct decision is a pure function of the
	// RIB-in set, so rollback replays that rebuild an already-seen RIB-in
	// reuse the selection instead of re-running it. The XORP 0.4 engine is
	// order-sensitive and incremental — it never consults the cache.
	cache routecache.Ring[selKey, Path]
}

// selKey identifies one memoized decision: the RIB-in epoch plus the
// prefix the decision ran over.
type selKey struct {
	epoch  uint64
	prefix string
}

// New creates a daemon running the given decision engine.
func New(mode Mode) *Daemon {
	d := &Daemon{mode: mode}
	d.j = journal.New(func(u undoRec) { d.st.applyUndo(u) })
	return d
}

var (
	_ api.Application     = (*Daemon)(nil)
	_ api.Journaled       = (*Daemon)(nil)
	_ api.Recyclable      = (*state)(nil)
	_ api.RecomputeCached = (*Daemon)(nil)
)

// RouteCacheStats implements api.RecomputeCached.
func (d *Daemon) RouteCacheStats() api.RouteCacheStats { return d.cache.Stats() }

// SetRouteCaching implements api.RecomputeCached.
func (d *Daemon) SetRouteCaching(on bool) { d.cache.SetEnabled(on) }

// Epoch exposes the current topology epoch (tests and debugging).
func (d *Daemon) Epoch() uint64 { return d.st.epoch }

// JournalEnable implements api.Journaled.
func (d *Daemon) JournalEnable() { d.j.Enable() }

// JournalMark implements api.Journaled.
func (d *Daemon) JournalMark() journal.Mark { return d.j.Mark() }

// JournalRewind implements api.Journaled.
func (d *Daemon) JournalRewind(m journal.Mark) { d.j.Rewind(m) }

// JournalCompact implements api.Journaled.
func (d *Daemon) JournalCompact(m journal.Mark) { d.j.Compact(m) }

// The journaling setters below are the only paths that mutate daemon state
// after Init; each records the old value before writing.

func (d *Daemon) appendRibIn(prefix string, p Path) {
	old, had := d.st.ribIn[prefix]
	d.j.Record(undoRec{kind: undoRibIn, prefix: prefix, paths: old, had: had})
	d.st.ribIn[prefix] = append(old, p)
	// Epoch-bump contract: every RIB-in change is an effective mutation
	// (learn already deduplicates, so each append adds a new path).
	d.j.Record(undoRec{kind: undoEpoch, u64: d.st.epoch})
	d.st.epoch += pathContentHash(p)
}

// pathContentHash fingerprints one RIB-in path (all decision inputs plus
// the identity fields).
func pathContentHash(p Path) uint64 {
	h := routecache.Hash()
	h = routecache.HashString(h, p.Name)
	h = routecache.HashString(h, p.Prefix)
	h = routecache.HashUint64(h, uint64(p.ASPathLen))
	h = routecache.HashUint64(h, uint64(p.NeighborAS))
	h = routecache.HashUint64(h, uint64(p.MED))
	h = routecache.HashUint64(h, uint64(p.IGPDist))
	return routecache.Finish(h)
}

func (d *Daemon) setBest(prefix string, p Path) {
	old, had := d.st.best[prefix]
	d.j.Record(undoRec{kind: undoBest, prefix: prefix, path: old, had: had})
	d.st.best[prefix] = p
}

func (d *Daemon) bumpDecisions() {
	d.j.Record(undoRec{kind: undoDecisions, u64: d.st.decisions})
	d.st.decisions++
}

// Init implements api.Application.
func (d *Daemon) Init(self msg.NodeID, neighbors []api.Neighbor) {
	d.self = self
	d.neighbors = append([]api.Neighbor(nil), neighbors...)
	sort.Slice(d.neighbors, func(i, j int) bool { return d.neighbors[i].ID < d.neighbors[j].ID })
	d.st = &state{ribIn: map[string][]Path{}, best: map[string]Path{}}
}

// learn ingests one path and returns the updates to propagate.
func (d *Daemon) learn(p Path, from msg.NodeID) []msg.Out {
	// Deduplicate by path name per prefix (iBGP can deliver the same
	// path over several peerings).
	for _, have := range d.st.ribIn[p.Prefix] {
		if have.Name == p.Name {
			return nil
		}
	}
	d.appendRibIn(p.Prefix, p)
	d.bumpDecisions()

	var newBest Path
	var ok bool
	switch d.mode {
	case Fixed:
		// The full decision is a pure function of the RIB-in set, so it
		// memoizes on (epoch, prefix): a rollback replay that rebuilds an
		// already-seen RIB-in reuses the selection.
		if best, hit := d.cache.Lookup(selKey{d.st.epoch, p.Prefix}); hit {
			newBest, ok = best, true
			break
		}
		newBest, ok = SelectCorrect(d.st.ribIn[p.Prefix])
		if ok {
			d.cache.Insert(selKey{d.st.epoch, p.Prefix}, newBest)
		}
	default:
		// XORP 0.4: compare the incoming path against the current best
		// only.
		cur, have := d.st.best[p.Prefix]
		if !have {
			newBest, ok = p, true
		} else if pairwiseBetter(p, cur) {
			newBest, ok = p, true
		} else {
			newBest, ok = cur, true
		}
	}
	if !ok {
		return nil
	}
	if cur, have := d.st.best[p.Prefix]; have && cur == newBest {
		return nil // selection unchanged: nothing to advertise
	}
	d.setBest(p.Prefix, newBest)
	var outs []msg.Out
	for _, nb := range d.neighbors {
		if nb.ID == from {
			continue
		}
		outs = append(outs, msg.Out{To: nb.ID, Payload: update{Path: newBest}})
	}
	return outs
}

// HandleMessage implements api.Application.
func (d *Daemon) HandleMessage(m *msg.Message) []msg.Out {
	u, ok := m.Payload.(update)
	if !ok {
		return nil
	}
	return d.learn(u.Path, m.From)
}

// HandleTimer implements api.Application (BGP's MRAI and keepalives are
// not needed for the case study; the timer is a no-op).
func (d *Daemon) HandleTimer(now vtime.Time) []msg.Out { return nil }

// HandleExternal implements api.Application: eBGP announcements arrive at
// border routers as recorded external events; a neighbor restart
// re-advertises our current best paths to it (route-refresh on session
// re-establishment — the fresh speaker's RIB is empty).
func (d *Daemon) HandleExternal(ev api.ExternalEvent) []msg.Out {
	if pr, ok := ev.(api.PeerRestart); ok {
		return d.refreshPeer(pr.Peer)
	}
	a, ok := ev.(Announce)
	if !ok {
		return nil
	}
	return d.learn(a.Path, msg.None)
}

// refreshPeer re-sends every selected best path to one neighbor, in
// deterministic prefix order.
func (d *Daemon) refreshPeer(peer msg.NodeID) []msg.Out {
	known := false
	for _, nb := range d.neighbors {
		if nb.ID == peer {
			known = true
			break
		}
	}
	if !known || len(d.st.best) == 0 {
		return nil
	}
	prefixes := make([]string, 0, len(d.st.best))
	for p := range d.st.best {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	var outs []msg.Out
	for _, p := range prefixes {
		outs = append(outs, msg.Out{To: peer, Payload: update{Path: d.st.best[p]}})
	}
	return outs
}

// State implements api.Application.
func (d *Daemon) State() api.State { return d.st }

// Restore implements api.Application.
func (d *Daemon) Restore(st api.State) { d.st = st.(*state) }

// Best returns the selected path for prefix.
func (d *Daemon) Best(prefix string) (Path, bool) {
	p, ok := d.st.best[prefix]
	return p, ok
}

// PathCount returns the number of stored candidate paths for prefix.
func (d *Daemon) PathCount(prefix string) int { return len(d.st.ribIn[prefix]) }

// ArrivalOrder returns the names of the stored paths in arrival order
// (debugging the case study).
func (d *Daemon) ArrivalOrder(prefix string) []string {
	var names []string
	for _, p := range d.st.ribIn[prefix] {
		names = append(names, p.Name)
	}
	return names
}

// Decisions reports how many selection runs the daemon executed.
func (d *Daemon) Decisions() uint64 { return d.st.decisions }

// Figure4Paths returns the path triple from the paper's Figure 4: p1 and
// p2 share a neighboring AS; p1 has MED 10 and IGP 10, p2 has MED 5 and
// IGP 30, p3 has MED 20 and IGP 20 from another AS. Pairwise, p2 beats p1
// (MED), p3 beats p2 (IGP; different AS so MED skipped), p1 beats p3
// (IGP) — a preference cycle. The correct full decision selects p3.
func Figure4Paths(prefix string) (p1, p2, p3 Path) {
	p1 = Path{Name: "p1", Prefix: prefix, ASPathLen: 3, NeighborAS: 100, MED: 10, IGPDist: 10}
	p2 = Path{Name: "p2", Prefix: prefix, ASPathLen: 3, NeighborAS: 100, MED: 5, IGPDist: 30}
	p3 = Path{Name: "p3", Prefix: prefix, ASPathLen: 3, NeighborAS: 200, MED: 20, IGPDist: 20}
	return
}
