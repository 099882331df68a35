// Package api defines the contract between control-plane software (the
// routing daemons) and the DEFINED substrate (the rollback and lockstep
// engines). It corresponds to the instrumentation interface of the paper's
// implementation section (§3): the substrate intercepts message sending,
// message receiving and timer calls, and the application exposes enough
// state management for checkpoint/restore.
//
// Applications must be deterministic: outputs may depend only on the
// current state and the input being processed. They must not read wall
// clocks, use global randomness, or mutate received messages — virtual
// time only advances through HandleTimer.
package api

import (
	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/routecache"
	"defined/internal/vtime"
)

// Neighbor describes one adjacent router as seen from a node.
type Neighbor struct {
	ID msg.NodeID
	// Cost is the routing metric of the connecting link (derived from
	// the link's propagation delay by the engines).
	Cost uint32
}

// State is checkpointable application state. Clone must return a deep copy
// that shares no mutable structure with the receiver.
type State interface {
	Clone() State
}

// Application is one node's control-plane software instance run under
// DEFINED (or bare, for the unmodified baseline).
type Application interface {
	// Init installs the node identity and adjacent links. It is called
	// once before any other method — and again, from scratch, when a
	// crash fault restarts the node: implementations must fully reset
	// their state (a restarted daemon remembers nothing). Init assumes
	// every adjacent link up; the substrate follows a restart-time Init
	// with LinkChange events for links that are currently down.
	Init(self msg.NodeID, neighbors []Neighbor)

	// HandleMessage processes one delivered message and returns the
	// messages to send in response. The substrate assigns causal
	// annotations: outputs are children of m unless Out.CausedBy says
	// otherwise.
	//
	// The returned slice (from any handler) is only valid until the next
	// handler invocation on the same application: implementations may
	// reuse one output buffer across calls, and the substrate consumes
	// outputs synchronously before delivering anything else.
	//
	// m is a borrow: the wire struct is pool-recycled once every engine
	// layer releases it, so applications must not retain m itself past
	// the call. Retaining m.Payload is fine — payloads are shared and
	// never pooled (the LSA databases do exactly this).
	HandleMessage(m *msg.Message) []msg.Out

	// HandleTimer advances the application's virtual clock to now and
	// fires any due protocol timers. Outputs start fresh causal chains.
	// now only moves forward, in beacon-interval steps.
	HandleTimer(now vtime.Time) []msg.Out

	// HandleExternal applies an external event (link change, route
	// injection). Outputs start fresh causal chains.
	HandleExternal(ev ExternalEvent) []msg.Out

	// State returns the current application state. The substrate copies
	// it for checkpoints (Clone, or CloneInto when it is Recyclable); the
	// application keeps ownership.
	State() State

	// Restore replaces the application state with a checkpoint
	// previously obtained from State().Clone(). The substrate hands st
	// over and keeps no reference to it, so the application may adopt it
	// and mutate it in place. When the state implements Recyclable, the
	// application also promises to let go of the state State() returned
	// before the call: the substrate may reuse it as a checkpoint.
	Restore(st State)
}

// Recyclable is an optional State capability: a checkpoint copies the live
// state into storage the substrate already holds, instead of allocating a
// new clone on every delivery (FK checkpointing, the paper's fork per
// delivery, pays only for the copy the same way).
//
// The substrate probes for this interface with a type assertion on what
// State() returns; states without it keep working through Clone.
//
// Contract: CloneInto(dst) returns a state equal to what Clone returns,
// sharing no mutable structure with the receiver. dst is nil or a state of
// the same type that the substrate owns outright — an earlier checkpoint,
// or a state the application let go of in Restore — so the copy may reuse
// dst's storage and may return dst itself. Implementing Recyclable also
// makes the Restore promise above: Restore(st) adopts st and lets go of
// the state State() returned before the call.
type Recyclable interface {
	State
	CloneInto(dst State) State
}

// Journaled is an optional Application capability enabling real MI
// ("memory-intercepted") checkpointing: the application records a compact
// undo entry for every state mutation, so the substrate can checkpoint by
// taking an O(1) journal mark instead of calling State().Clone(), and roll
// back by rewinding the journal to the mark — cost proportional to the
// bytes dirtied since the checkpoint, not to the state size.
//
// The substrate probes for this interface with a type assertion;
// applications that do not implement it keep working through the
// Clone/Restore fallback, in every checkpoint mode.
//
// Contract: once JournalEnable has been called, *every* mutation of the
// state observable through HandleMessage/HandleTimer/HandleExternal must
// be journaled, and JournalRewind(m) must restore a state semantically
// identical to the one State().Clone() would have captured at the moment
// JournalMark returned m. JournalCompact(m) tells the application that no
// rewind will ever target a mark older than m (its checkpoint settled), so
// the journal prefix can be discarded. Marks are opaque tokens: the
// substrate stores them and hands them back, never compares or subtracts
// them. A mark stays valid, for any number of rewinds to it, until a
// rewind to an older mark or a compaction past it.
type Journaled interface {
	// JournalEnable turns on undo recording. Called after Init and before
	// any handler runs; enabling is idempotent and one-way. A crash-fault
	// restart re-runs Init with the journal still enabled — the substrate
	// compacts the boot-time entries away afterward, exactly as it does
	// for the first boot.
	JournalEnable()
	// JournalMark returns a mark for the current state. Not a pure read:
	// it may record bookkeeping (a composite logs its parts' marks).
	JournalMark() journal.Mark
	// JournalRewind undoes every mutation recorded since m.
	JournalRewind(m journal.Mark)
	// JournalCompact discards undo entries older than m.
	JournalCompact(m journal.Mark)
}

// RouteCacheStats counts the outcomes of an application's epoch-keyed
// route-computation cache (see RecomputeCached).
type RouteCacheStats = routecache.Stats

// RecomputeCached is an optional Application capability: the application
// memoizes its route computation (OSPF's SPF table, RIP's announcement
// vectors, BGP's per-prefix decision) on a **topology epoch** — a
// journaled state version bumped only by *effective* routing-input
// mutations — so a recompute requested at an already-seen epoch reuses the
// shared immutable result with zero allocation.
//
// The epoch-bump contract (see the routecache package comment for the full
// statement): the epoch must change exactly when the routing input's
// *content* changes — a no-op write (refreshed OSPF LSA with identical
// links, RIP timer refresh) must not bump it — and the epoch must be part
// of the journaled/cloned checkpointable state, so a rollback rewind
// restores it and the cached result for the restored epoch is valid again.
// Cached results must be observationally invisible: bit-identical to what
// the uncached computation would produce at the same epoch.
//
// The substrate probes for this interface with a type assertion:
// applications without it simply keep today's uncached behavior and
// contribute nothing to the engine's cache counters.
type RecomputeCached interface {
	// RouteCacheStats reports the cumulative cache counters.
	RouteCacheStats() RouteCacheStats
	// SetRouteCaching toggles the cache. The substrate calls it (with
	// false) before any handler runs when the run opts out of caching;
	// disabling empties the cache and zeroes its counters.
	SetRouteCaching(enabled bool)
}

// ExternalEvent is an event arriving from outside the instrumented network
// — exactly what DEFINED's partial recordings capture (paper §2.5).
type ExternalEvent interface {
	// ExternalKind returns a stable identifier used by the recording
	// codec ("link-change", "bgp-announce", ...); record.Decode has one
	// case per kind.
	ExternalKind() string
}

// LinkChange reports that the link between the receiving node and Peer
// changed state. Both endpoints of a link receive one.
type LinkChange struct {
	Peer msg.NodeID `json:"peer"`
	Up   bool       `json:"up"`
}

// ExternalKind implements ExternalEvent.
func (LinkChange) ExternalKind() string { return "link-change" }

// PeerRestart tells the receiving node that neighbor Peer crashed and came
// back with empty state. The substrate delivers one to every live neighbor
// of a restarted node (after the node itself re-Inits), so protocols can
// re-sync state the fresh daemon cannot quickly recover on its own — OSPF
// pushes its link-state database (including the restarted node's own stale
// LSA, whose sequence number the new incarnation must outrun), RIP
// re-announces its vectors.
type PeerRestart struct {
	Peer msg.NodeID `json:"peer"`
}

// ExternalKind implements ExternalEvent.
func (PeerRestart) ExternalKind() string { return "peer-restart" }

// LinkCost derives the routing metric of a link from its propagation
// delay: one cost unit per 100 µs, with a floor of 1. Both engines use it
// so production and debugging networks agree on metrics.
func LinkCost(delay vtime.Duration) uint32 {
	c := uint32(delay / (100 * vtime.Microsecond))
	if c == 0 {
		c = 1
	}
	return c
}
