// Package msg defines the message model shared by the simulator, the
// ordering function, the DEFINED-RB/LS engines and the routing daemons.
//
// Every message carries the annotation triple the paper introduces in §2.2:
//
//   - n_i (Origin): the node that generated the first message of the causal
//     chain (the node that reacted to an external event),
//   - s_i (Seq): a strictly increasing counter assigned by that node,
//   - d_i (Delay): a deterministic estimate of the accumulated link delay
//     from the originating node to the receiver,
//
// plus the beacon group number and the causal chain length used to bound
// rollback chains within a timestep.
//
// # Message ownership and lifecycle
//
// Wire messages are reference-counted and pool-recycled (Pool, Retain,
// Release). A message allocated from a Pool starts with one reference owned
// by the allocator; the struct returns to the pool when the last reference
// is released. Messages built without a pool (struct literals in tests,
// senders with no Pool attached) are unmanaged: Retain/Release are no-ops
// and the garbage collector owns them. The ownership rules, layer by layer:
//
//   - annotate.Sender.Materialize allocates from its configured pool and
//     hands the caller an owned reference. In the rollback engine that
//     owner is the sentRec tracking the transmission; in lockstep it is
//     the node's send buffer.
//   - netsim.Sim.Send retains while the message is in flight (queued for
//     delivery) and releases after the delivery handler returns — for
//     every traffic class, which is what lets anti-messages recycle with
//     no extra bookkeeping: the engine releases its own reference right
//     after Send, and the in-flight reference dies with the delivery. A
//     send that returns false retained nothing.
//   - history windows retain per entry on Insert and release on Retire and
//     RemoveAt; the rollback engine's pending (deferral) buffer retains
//     held arrivals and releases when they flush into the window or are
//     annihilated by an anti-message.
//   - the rollback engine's sentRec keeps its reference across rollback
//     and replay — a re-adopted (lazy-cancellation) output reuses the
//     original message — and releases when the record is cancelled,
//     retracted, or settles.
//   - lockstep releases a delivered message when the next delivery starts
//     (its key stays in the node's delivery sequence), so the Delivery
//     returned by StepEvent stays readable until the next step.
//
// Handlers receive messages as borrows: a layer that wants to keep a
// message beyond the current callback must Retain it. Payloads are shared,
// never pooled — recycling zeroes the Payload field, not the payload.
//
// The structs themselves are pool-lifetime: a Pool cuts fresh messages from
// slabs of 64, and a released struct goes back to its pool's free list (or
// the poison quarantine), never to the garbage collector, which reclaims a
// slab only with the pool. A stale pointer therefore always addresses a
// Message — recycled, poisoned or live — which is what makes CheckLive and
// the poison sweep meaningful. The free list is chained through the
// released structs (a free Message's Payload names the next), so recycling
// needs no memory beyond the messages themselves.
//
// # Sharded engines
//
// Reference counts are atomic, so the ownership rules above hold unchanged
// when a message crosses a shard boundary of the sharded engine: the
// sender's shard allocates (from its shard-local pool), the receiver's
// shard retains and releases, and the last release — wherever it happens —
// returns the struct to its home pool. Pools that can receive such
// cross-shard releases run in concurrent mode (Pool.SetConcurrent); the
// sequential engine's single pool stays in the lock-free fast path.
// Message contents are still unsynchronized: a message must only be
// mutated before it is handed to the simulator, and the simulator's
// commit barrier is the happens-before edge between the sender's writes
// and the receiving shard's reads.
//
// # Poison mode
//
// Pool.SetPoison(true) turns release-to-pool into scribble-and-quarantine:
// a released struct is overwritten with sentinel values and never reused,
// so any read through a stale reference deterministically observes the
// sentinel instead of a recycled message, and any Retain/Release/CheckLive
// on it is tallied in Pool.Violations (the sweep runs to completion and
// reports the full count; without poison mode the same violation panics
// immediately, because the struct may already alias a new owner). A
// poison-mode run that completes with zero violations and bit-identical
// committed orders is the lifecycle correctness proof the golden tests
// automate.
package msg

import (
	"fmt"

	"defined/internal/vtime"
)

// NodeID identifies a node (router) in the network. IDs are dense indices
// into the topology's node table.
type NodeID int32

// None is the nil node id.
const None NodeID = -1

// ID uniquely identifies a message instance: the sending node plus a
// per-sender strictly increasing counter. Note this is distinct from the
// causal annotation (Origin, Seq), which many messages along one causal
// chain share.
type ID struct {
	Sender NodeID
	Seq    uint64
}

// String renders the id as "sender:seq".
func (id ID) String() string { return fmt.Sprintf("%d:%d", id.Sender, id.Seq) }

// Annotation is the deterministic-ordering metadata attached to every
// application message (paper §2.2, Figure 1). Chain shares Origin's word,
// which makes a Message 96 bytes.
type Annotation struct {
	Origin NodeID         // n_i: originating node of the causal chain
	Chain  int32          // causal chain length within the timestep
	Seq    uint64         // s_i: origin's strictly increasing counter
	Delay  vtime.Duration // d_i: deterministic delay estimate origin → here
	Group  uint64         // beacon group number (timestep)
}

// String renders the annotation compactly for logs.
func (a Annotation) String() string {
	return fmt.Sprintf("g%d o%d s%d d%v c%d", a.Group, a.Origin, a.Seq, a.Delay, a.Chain)
}

// Kind distinguishes the traffic classes DEFINED multiplexes over the wire.
type Kind uint8

const (
	// KindApp is a control-plane protocol message (OSPF LSA, BGP update,
	// RIP response, ...), subject to deterministic ordering.
	KindApp Kind = iota
	// KindAnti is a rollback "unsend" notification instructing the
	// receiver to roll back a range of previously received messages.
	KindAnti

	// NumKinds is the number of traffic classes; Kind values are dense in
	// [0, NumKinds), so per-kind counters can live in fixed arrays.
	NumKinds = int(KindAnti) + 1
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindApp:
		return "app"
	case KindAnti:
		return "anti"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one packet on the wire. Messages are immutable once sent:
// neither engines nor applications may modify a received message or its
// payload (payloads are shared across rollback replays). Lifetime is
// reference-counted when the message came from a Pool (see the package
// comment for the ownership rules).
type Message struct {
	ID   ID
	From NodeID // sending node (previous hop)
	To   NodeID // receiving node (next hop)
	Kind Kind
	// rc/home implement pool-managed lifetime: home is the owning pool
	// (nil for unmanaged messages) and rc the live reference count (it
	// shares Kind's word: 96 bytes, and a slab of 64, 6,144 B, fills its
	// size class exactly).
	rc  int32
	Ann Annotation
	// LinkSeq is the per-directed-link send index assigned by the
	// sender. It is part of the checkpointed sender state, so replays
	// after a rollback reassign identical values — which makes it a
	// deterministic final tie-break for the ordering function. An
	// anti-message carries its target's ID.Seq here instead (the target's
	// Sender is the anti's From).
	LinkSeq uint64
	Payload any
	home    *Pool
}

// String renders a short human-readable digest.
func (m *Message) String() string {
	return fmt.Sprintf("[%s %s %d→%d %s]", m.Kind, m.ID, m.From, m.To, m.Ann)
}

// PayloadEq lets a payload type report equality with another payload.
// The rollback engine's lazy-cancellation matching compares every replayed
// output against the pooled originals on the rollback-replay critical
// path: through PayloadEq when the payload implements it, and with ==
// otherwise. A payload must do one or the other: one that is neither (a
// slice, a map, or a struct holding one) panics at its first send.
//
// PayloadEqual must implement structural equality over the payload's
// ordering-relevant content: two payloads are equal exactly when
// delivering either produces the same application behaviour.
type PayloadEq interface {
	PayloadEqual(other any) bool
}

// Out is a message emitted by an application before the substrate assigns
// wire identity (ID, annotations). The substrate tracks immediate causality
// (paper §3, "Providing interfaces to mark causal relationships"): outputs
// of HandleMessage are children of the message being processed; outputs of
// HandleTimer/HandleExternal start fresh causal chains.
type Out struct {
	To      NodeID
	Payload any
	// Fresh forces this output to start a new causal chain even when
	// emitted while processing a message (rarely needed; e.g. a
	// periodic announcement batched opportunistically).
	Fresh bool
}

// AnnotateChild computes a child message's annotation from its parent's,
// given the outgoing link's deterministic delay estimate (paper Figure 1:
// d_child = d_parent + l_out; n and s inherited). For messages with several
// causal parents the caller passes the parent with the largest d_i (see the
// paper's footnote 1).
func AnnotateChild(parent Annotation, outDelay vtime.Duration) Annotation {
	return Annotation{
		Origin: parent.Origin,
		Seq:    parent.Seq,
		Delay:  parent.Delay + outDelay,
		Group:  parent.Group,
		Chain:  parent.Chain + 1,
	}
}

// AnnotateOrigin computes the annotation of a message that starts a causal
// chain at node origin: d_i is just the outgoing link delay, s_i the node's
// counter value, group the current beacon group.
func AnnotateOrigin(origin NodeID, seq uint64, outDelay vtime.Duration, group uint64) Annotation {
	return Annotation{
		Origin: origin,
		Seq:    seq,
		Delay:  outDelay,
		Group:  group,
		Chain:  0,
	}
}
