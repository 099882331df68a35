// Package ordering implements the pseudorandom ordering function at the
// heart of DEFINED (paper §2.2). Both DEFINED-RB (production) and
// DEFINED-LS (debugging) sort message events with the *same* function,
// which is what makes replay reproduce the original execution (Theorem 1).
//
// A key identifies one ordered event: a virtual-timer batch, an external
// event application, or a message. Within a beacon group the classes order
// timer < external < message.
//
// Two orderings are provided:
//
//   - Optimized (OO): sort by (d_i, n_i, s_i, ...). Because d_i estimates
//     the expected arrival time of a message, this ordering matches the
//     common-case arrival order and minimizes rollbacks (the paper's key
//     optimization, evaluated in Figure 8a/8b). Causality holds because a
//     child's d_i strictly exceeds its parent's.
//   - Random (RO): the ablation baseline — causal chains (identified by
//     their (n_i, s_i) root) are permuted by a seeded hash; within a chain
//     d_i order is kept, preserving causality but not the common-case
//     match.
//
// Keys embed enough tie-breaking state (previous hop, per-link sequence)
// to make the order total, so sorting is deterministic. DEFINED-LS reads
// d_i off the keys and, under RO, the ChainHash hook to schedule a
// conservative forward replay that delivers in exactly this order.
package ordering

import (
	"encoding/json"
	"fmt"

	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/vtime"
)

// Class is the kind of ordered event within a group.
type Class uint8

const (
	// ClassTimer is the virtual-timer batch fired when a node's virtual
	// time advances to the group; it precedes everything in the group.
	ClassTimer Class = iota
	// ClassExternal is a recorded external event (link change, route
	// injection) applied at a node; externals precede messages.
	ClassExternal
	// ClassMessage is an application message.
	ClassMessage
)

// Key is the sortable identity of an ordered event. Fields are laid out
// widest first (48 bytes, one padded tail). The history window and the
// deferral buffer store a key's Rank in its place and derive the key from
// what the cell already holds: the message, or the rank (LocalKey).
type Key struct {
	Group   uint64
	Delay   vtime.Duration // d_i (messages only)
	Seq     uint64         // s_i; for externals, the in-group sequence
	LinkSeq uint64         // per-directed-link send index: final tie-break
	Origin  msg.NodeID     // n_i; for timer/external entries, the local node
	From    msg.NodeID     // previous hop: deterministic tie-break
	Class   Class
}

// MarshalJSON writes the fields in the order recordings have always
// carried them (the declaration order before the layout above), so a
// recording's bytes do not depend on the struct's packing.
func (k Key) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Group   uint64
		Class   Class
		Delay   vtime.Duration
		Origin  msg.NodeID
		Seq     uint64
		From    msg.NodeID
		LinkSeq uint64
	}{k.Group, k.Class, k.Delay, k.Origin, k.Seq, k.From, k.LinkSeq})
}

// KeyOf builds the ordering key for an application message.
func KeyOf(m *msg.Message) Key {
	return KeyOfSend(m.From, m.Ann, m.LinkSeq)
}

// KeyOfSend builds the ordering key a message will have before the message
// struct exists — the rollback engine's lazy-cancellation matching decides
// from (sender, annotation, link sequence) alone whether a replayed output
// re-adopts its original transmission, and only materializes a new message
// when it does not.
func KeyOfSend(from msg.NodeID, ann msg.Annotation, linkSeq uint64) Key {
	return Key{
		Group:   ann.Group,
		Class:   ClassMessage,
		Delay:   ann.Delay,
		Origin:  ann.Origin,
		Seq:     ann.Seq,
		From:    from,
		LinkSeq: linkSeq,
	}
}

// TimerKey builds the pseudo-entry key for the timer batch that fires when
// node's virtual time advances to group g.
func TimerKey(group uint64, node msg.NodeID) Key {
	return Key{Group: group, Class: ClassTimer, Origin: node}
}

// ExternalKey builds the pseudo-entry key for the seq-th external event
// applied at node during group g.
func ExternalKey(group uint64, node msg.NodeID, seq uint64) Key {
	return Key{Group: group, Class: ClassExternal, Origin: node, Seq: seq}
}

// IsTimer reports whether the key is a timer batch.
func (k Key) IsTimer() bool { return k.Class == ClassTimer }

// IsExternal reports whether the key is an external event entry.
func (k Key) IsExternal() bool { return k.Class == ClassExternal }

// String renders a key compactly.
func (k Key) String() string {
	switch k.Class {
	case ClassTimer:
		return fmt.Sprintf("{timer g%d n%d}", k.Group, k.Origin)
	case ClassExternal:
		return fmt.Sprintf("{ext g%d n%d #%d}", k.Group, k.Origin, k.Seq)
	default:
		return fmt.Sprintf("{g%d d%v o%d s%d f%d l%d}",
			k.Group, k.Delay, k.Origin, k.Seq, k.From, k.LinkSeq)
	}
}

// Func is a deterministic total order over keys.
type Func interface {
	// Name identifies the ordering in experiment output ("OO", "RO").
	Name() string
	// Compare returns -1, 0, or +1. Zero only for equivalent keys.
	Compare(a, b Key) int
	// Rank returns the key's integer image under this ordering; see Rank.
	Rank(k Key) Rank
}

// Rank is a two-word integer image of the leading fields of a Key under
// one ordering function, for callers that compare the same key many times
// (every history-window and deferral cell stores one in place of its key).
// The contract is one-sided: a strictly smaller rank means a strictly
// smaller key, and equal keys have equal ranks; equal ranks decide nothing
// and fall back to Compare on the keys. Hi is Group<<2|Class —
// exact for groups below 2^62, which virtual time cannot reach — and Lo is
// the first field the ordering sorts a class by within a group: the
// sign-biased Delay (OO) or the chain hash (RO) for messages, the
// sign-biased Origin for timer batches and externals.
type Rank struct {
	Hi, Lo uint64
}

// Less reports whether r sorts strictly before o.
func (r Rank) Less(o Rank) bool {
	return r.Hi < o.Hi || (r.Hi == o.Hi && r.Lo < o.Lo)
}

// biased maps a signed value to the unsigned value with the same order.
func biased(v int64) uint64 { return uint64(v) ^ 1<<63 }

// rankOf builds a key's rank; msgLo is the ordering's leading message
// field and is only read for message keys.
func rankOf(k Key, msgLo uint64) Rank {
	r := Rank{Hi: k.Group<<2 | uint64(k.Class), Lo: msgLo}
	if k.Class != ClassMessage {
		r.Lo = biased(int64(k.Origin))
	}
	return r
}

// LocalKey inverts rankOf for the classes a rank all but determines: it
// returns the timer-batch (seq 0) or external key whose rank, under any
// ordering, is r, with seq the external's in-group sequence — the one
// field the rank leaves out. A message's rank does not invert.
func LocalKey(r Rank, seq uint64) Key {
	return Key{Group: r.Hi >> 2, Class: Class(r.Hi & 3), Origin: msg.NodeID(int64(r.Lo ^ 1<<63)), Seq: seq}
}

func cmpUint64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// prefix compares the (group, class) structure shared by all ordering
// functions, and fully orders timer and external entries. It returns
// (comparison, done): when done is true the comparison is final.
func prefix(a, b Key) (int, bool) {
	if c := cmpUint64(a.Group, b.Group); c != 0 {
		return c, true
	}
	if a.Class != b.Class {
		if a.Class < b.Class {
			return -1, true
		}
		return 1, true
	}
	switch a.Class {
	case ClassTimer:
		return cmpInt64(int64(a.Origin), int64(b.Origin)), true
	case ClassExternal:
		if c := cmpInt64(int64(a.Origin), int64(b.Origin)); c != 0 {
			return c, true
		}
		return cmpUint64(a.Seq, b.Seq), true
	}
	return 0, false
}

// messageTail compares the deterministic message suffix shared by OO and RO.
func messageTail(a, b Key) int {
	if c := cmpInt64(int64(a.Delay), int64(b.Delay)); c != 0 {
		return c
	}
	if c := cmpInt64(int64(a.Origin), int64(b.Origin)); c != 0 {
		return c
	}
	if c := cmpUint64(a.Seq, b.Seq); c != 0 {
		return c
	}
	if c := cmpInt64(int64(a.From), int64(b.From)); c != 0 {
		return c
	}
	return cmpUint64(a.LinkSeq, b.LinkSeq)
}

// optimized is the paper's delay-sensitive ordering (OO).
type optimized struct{}

// Optimized returns the delay-sensitive ordering function: within a group,
// sort by d_i, then n_i, then s_i (paper §2.2: "a node uses the ordering
// function to first sort the messages by d_i values...").
func Optimized() Func { return optimized{} }

func (optimized) Name() string { return "OO" }

func (optimized) Compare(a, b Key) int {
	if c, done := prefix(a, b); done {
		return c
	}
	return messageTail(a, b)
}

func (optimized) Rank(k Key) Rank { return rankOf(k, biased(int64(k.Delay))) }

// random is the RO ablation: chains shuffled by seeded hash within each
// depth level.
type random struct {
	seed uint64
}

// Random returns the random-ordering baseline used in Figure 8a/8b. It is
// still deterministic (seeded) and still causally consistent: messages of
// one causal chain — identified by the inherited (n_i, s_i) — keep their
// d_i order; only the order *between* chains is scrambled.
func Random(seed uint64) Func { return random{seed: seed} }

func (r random) Name() string { return "RO" }

// ChainHash implements the conservative-replay hook for chain-sequential
// scheduling: all messages of one causal chain share the hash, and the
// hash is the chain-level sort key.
func (r random) ChainHash(k Key) uint64 {
	h := rng.Hash64(r.seed ^ uint64(k.Origin)<<32 ^ k.Seq)
	return rng.Hash64(h ^ k.Group)
}

func (r random) Compare(a, b Key) int {
	if c, done := prefix(a, b); done {
		return c
	}
	if c := cmpUint64(r.ChainHash(a), r.ChainHash(b)); c != 0 {
		return c
	}
	return messageTail(a, b)
}

func (r random) Rank(k Key) Rank {
	var chain uint64
	if k.Class == ClassMessage {
		chain = r.ChainHash(k)
	}
	return rankOf(k, chain)
}

// ChainOrdered marks ordering functions that sort whole causal chains by a
// hash; DEFINED-LS replays them chain-sequentially.
type ChainOrdered interface {
	ChainHash(k Key) uint64
}

// ByName resolves an ordering function by the name its Name method
// returns, and by no other spelling: the engine block's defaults and rules
// compare the name it holds, so an alias would resolve to one engine and
// run another.
func ByName(name string, seed uint64) (Func, error) {
	switch name {
	case "OO":
		return Optimized(), nil
	case "RO":
		return Random(seed), nil
	default:
		return nil, fmt.Errorf("ordering: unknown ordering %q", name)
	}
}
