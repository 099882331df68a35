// Package annotate centralizes how outgoing application messages receive
// their wire identity and causal annotations (n_i, s_i, d_i, group, chain).
// Both DEFINED-RB (production and its baseline) and DEFINED-LS (debugging)
// deliver every event through Sender.Deliver and build its outputs from the
// Cause it returns, so that a replayed execution regenerates byte-identical
// annotations — a precondition of the reproducibility theorem (paper
// Theorem 1). For the same reason both engines boot their nodes from the
// same inputs: Neighbors is what a node's application is initialized with,
// and Skews anchors the d_i of timer-started chains.
package annotate

import (
	"fmt"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// beaconLeader is the node whose beacons define the groups.
const beaconLeader = 0

// Neighbors returns node n's neighbor list as its application's Init
// receives it: sorted by node id, each link's cost derived from its
// propagation delay (api.LinkCost).
func Neighbors(g *topology.Graph, n msg.NodeID) []api.Neighbor {
	var out []api.Neighbor
	links := g.Incident(int(n))
	for k, nb := range g.Neighbors(int(n)) {
		out = append(out, api.Neighbor{ID: msg.NodeID(nb), Cost: api.LinkCost(g.Links[links[k]].Delay)})
	}
	return out
}

// Skews returns every node's beacon-propagation skew: the shortest-path
// delay from the beacon leader (node 0). Group numbers at a node lag the
// leader's wall group by this skew, modeling beacon propagation (paper
// §2.2). A node the leader cannot reach hears no beacons and gets 0.
func Skews(g *topology.Graph) []vtime.Duration {
	d := g.ShortestDelays(beaconLeader)
	for i, v := range d {
		d[i] = max(v, 0)
	}
	return d
}

// Sender assigns annotations and wire ids for one node's outgoing
// messages. OriginSeq and LinkSeq are part of the node's checkpointable
// state (they must roll back so replays reassign identical values); MsgSeq
// is wire-level identity and monotonically increases across rollbacks.
//
// Two checkpoint representations are supported, matching the engine's
// FK/MI modes: CopyCounters/RestoreCounters copy the counters (full-snapshot
// checkpoints), while the undo journal — enabled with
// JournalEnable — records a (slot, old-value) pair per counter mutation so
// an MI checkpoint is just a JournalMark and rollback a JournalRewind.
type Sender struct {
	Self       msg.NodeID
	G          *topology.Graph
	ChainBound int
	// ProcEstimate is the deterministic per-hop processing cost folded
	// into d_i: each hop's expected latency is link delay plus the
	// node's processing time, and d_i tracks expected *arrival* times
	// (paper §2.2). Production and replay must use the same value.
	ProcEstimate vtime.Duration
	// Skew is the node's beacon skew (Skews): the d_i anchor of the
	// chains its timer batches start.
	Skew vtime.Duration
	// Pool, when set, backs Materialize: wire messages are allocated
	// refcounted from it (the caller owns the returned reference) and
	// recycle once every layer holding them releases. A nil Pool keeps
	// the unmanaged heap-allocation behaviour.
	Pool *msg.Pool

	OriginSeq uint64
	// LinkSeq is dense by out-link slot: topology.Graph.Slot(Self, dest),
	// the destination's position in the node's sorted row of the graph's
	// adjacency table (len == degree). Checkpoints copy it with a single
	// memmove instead of a map clone, and the degree-sized layout keeps
	// per-node state O(degree) rather than O(topology) — the difference
	// between 10k-router boot fitting in memory or not.
	// Counter values per destination are unchanged from the old
	// node-id-indexed layout: each destination still owns one slot.
	LinkSeq []uint64
	MsgSeq  uint64

	j *journal.Log[counterUndo]
}

// counterUndo is one counter mutation: slot is the LinkSeq slot (neighbor
// index), or originSlot for OriginSeq; old is the value to restore.
type counterUndo struct {
	slot int32
	old  uint64
}

// originSlot marks a counterUndo that restores OriginSeq.
const originSlot int32 = -1

// NewSender creates a sender for node self, whose beacon skew is skew.
// chainBound must be at least 1; both engines check it where they read it
// (the engine spec's rules, lockstep.New for a recording).
func NewSender(self msg.NodeID, g *topology.Graph, chainBound int, procEstimate, skew vtime.Duration) *Sender {
	s := &Sender{Self: self, G: g, ChainBound: chainBound, ProcEstimate: procEstimate, Skew: skew,
		LinkSeq: make([]uint64, g.Degree(int(self)))}
	s.j = journal.New(func(u counterUndo) {
		if u.slot == originSlot {
			s.OriginSeq = u.old
			return
		}
		s.LinkSeq[u.slot] = u.old
	})
	return s
}

// JournalEnable turns on counter undo recording (MI checkpointing).
func (s *Sender) JournalEnable() { s.j.Enable() }

// JournalMark returns the counter journal position (an MI checkpoint).
func (s *Sender) JournalMark() journal.Mark { return s.j.Mark() }

// JournalRewind undoes counter mutations back to mark m.
func (s *Sender) JournalRewind(m journal.Mark) { s.j.Rewind(m) }

// JournalCompact discards undo entries older than m (checkpoint settled).
func (s *Sender) JournalCompact(m journal.Mark) { s.j.Compact(m) }

// Counters is the checkpointable portion of the sender.
type Counters struct {
	OriginSeq uint64
	LinkSeq   []uint64
}

// CopyCounters copies the checkpointable counters into dst, reusing dst's
// LinkSeq array, so a checkpoint into a recycled snapshot allocates
// nothing.
func (s *Sender) CopyCounters(dst *Counters) {
	dst.OriginSeq = s.OriginSeq
	dst.LinkSeq = append(dst.LinkSeq[:0], s.LinkSeq...)
}

// RestoreCounters rewinds the checkpointable counters. It copies c's
// values into the sender's own LinkSeq array — in place when sizes match,
// which is the steady state — so a restore allocates nothing.
func (s *Sender) RestoreCounters(c Counters) {
	s.OriginSeq = c.OriginSeq
	if len(s.LinkSeq) == len(c.LinkSeq) {
		copy(s.LinkSeq, c.LinkSeq)
	} else {
		s.LinkSeq = append(s.LinkSeq[:0:0], c.LinkSeq...)
	}
}

// Cause is what a delivery's outputs descend from: the delivered message's
// annotation, or a fresh causal chain in Group whose d_i is anchored at
// Offset. d_i estimates arrival *relative to the group boundary* (the
// paper: "d_i indicates the average arrival time of a message"); without
// the anchor, timer-triggered traffic from differently-skewed nodes
// systematically misorders against the estimate and triggers spurious
// rollbacks.
type Cause struct {
	Parent msg.Annotation // the delivered message's annotation (zero when Fresh)
	Fresh  bool           // the outputs start new chains
	Group  uint64         // the delivered key's group: where an Out.Fresh chain starts
	Offset vtime.Duration // a fresh chain's d_i anchor
}

// Deliver hands the event keyed key to app — HandleTimer at the group
// boundary, HandleExternal(ext) or HandleMessage(m) — and returns its
// outputs with their Cause: a timer batch starts fresh chains at the node's
// beacon skew, an external at its recorded in-group offset, and a message
// is the parent of its outputs. Every engine delivers through it, so every
// payload is a msg.PayloadEq or passes checkComparable before it is sent.
func (s *Sender) Deliver(app api.Application, key ordering.Key, m *msg.Message, ext api.ExternalEvent, offset vtime.Duration) (outs []msg.Out, c Cause) {
	switch {
	case key.IsTimer():
		outs = app.HandleTimer(vtime.GroupStart(key.Group, vtime.BeaconInterval))
		c = Cause{Fresh: true, Group: key.Group, Offset: s.Skew}
	case key.IsExternal():
		outs, c = app.HandleExternal(ext), Cause{Fresh: true, Group: key.Group, Offset: offset}
	default:
		outs, c = app.HandleMessage(m), Cause{Parent: m.Ann, Group: key.Group}
	}
	for i := range outs {
		if _, ok := outs[i].Payload.(msg.PayloadEq); !ok {
			checkComparable(outs[i].Payload)
		}
	}
	return outs, c
}

// checkComparable panics, naming p's type, unless == can compare p, as lazy
// cancellation does with a payload that is not a msg.PayloadEq (a slice, a
// map or a struct holding one cannot be). The panic is a function of the
// payload alone, so it fires on the first send of such a payload in every
// run, not only in one whose physical timing reaches a rollback's compare.
func checkComparable(p any) {
	defer func() {
		if recover() != nil {
			panic(fmt.Sprintf("annotate: payload type %T implements neither msg.PayloadEq nor ==", p))
		}
	}()
	_ = p == p // panics when p's dynamic type is not comparable
}

// Build turns an application output with cause c into a wire message.
func (s *Sender) Build(out msg.Out, c *Cause) *msg.Message {
	ann, ls := s.Prepare(out, c)
	return s.Materialize(out, ann, ls)
}

// Prepare performs everything Build does except allocating the message
// struct: it computes the annotation and advances the counters (OriginSeq,
// LinkSeq, MsgSeq — journaled as usual). The rollback engine's
// lazy-cancellation matching compares the prepared identity against pooled
// originals and calls Materialize only for outputs that did not re-adopt
// one — which is what removes the replay path's dominant allocation.
func (s *Sender) Prepare(out msg.Out, c *Cause) (ann msg.Annotation, linkSeq uint64) {
	slot := s.G.Slot(int(s.Self), int(out.To))
	if slot < 0 {
		panic(fmt.Sprintf("annotate: node %d sent to non-neighbor %d", s.Self, out.To))
	}
	hop := s.G.Links[s.G.Incident(int(s.Self))[slot]].Delay + s.ProcEstimate
	switch {
	case c.Fresh || out.Fresh:
		ann = msg.AnnotateOrigin(s.Self, s.OriginSeq, c.Offset+hop, c.Group)
		s.j.Record(counterUndo{slot: originSlot, old: s.OriginSeq})
		s.OriginSeq++
	case int(c.Parent.Chain)+1 >= s.ChainBound:
		// Chain bound exceeded: start a fresh chain in the next
		// timestep (paper §2.2). Relative to that next boundary the
		// message is immediate: only one hop anchors it.
		ann = msg.AnnotateOrigin(s.Self, s.OriginSeq, hop, c.Parent.Group+1)
		s.j.Record(counterUndo{slot: originSlot, old: s.OriginSeq})
		s.OriginSeq++
	default:
		ann = msg.AnnotateChild(c.Parent, hop)
	}
	s.MsgSeq++
	ls := s.LinkSeq[slot]
	s.j.Record(counterUndo{slot: int32(slot), old: ls})
	s.LinkSeq[slot] = ls + 1
	return ann, ls
}

// Materialize allocates the wire message for a prepared output. The wire
// id uses the current MsgSeq, i.e. the value Prepare assigned — callers
// materialize (or drop) a prepared output before preparing the next one.
// With a Pool attached the message is refcounted and the caller owns the
// returned reference.
func (s *Sender) Materialize(out msg.Out, ann msg.Annotation, linkSeq uint64) *msg.Message {
	var m *msg.Message
	if s.Pool != nil {
		m = s.Pool.Get()
	} else {
		m = &msg.Message{}
	}
	m.ID = msg.ID{Sender: s.Self, Seq: s.MsgSeq}
	m.From = s.Self
	m.To = out.To
	m.Kind = msg.KindApp
	m.Ann = ann
	m.LinkSeq = linkSeq
	m.Payload = out.Payload
	return m
}
