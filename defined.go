// Package defined is a reproduction of DEFINED — a user-space substrate
// for deterministic execution and interactive debugging of control-plane
// software (Lin, Jalaparti, Caesar, Van der Merwe; USENIX 2013).
//
// DEFINED makes an entire network's execution deterministic: given the
// same external events, every node receives messages and fires timers in
// the same order and virtual timing, regardless of physical jitter or
// interleavings. Nondeterministic ordering and timing bugs — the kind
// that partial logs cannot reproduce — become replayable from partial
// recordings of external events alone.
//
// Two engines implement the system:
//
//   - Network (DEFINED-RB) instruments a production network. Nodes
//     deliver arrivals speculatively in a pseudorandom-but-deterministic
//     order and roll back (checkpoint restore + cascading "unsend"
//     anti-messages) when arrivals diverge from it.
//   - Replay (DEFINED-LS) drives a debugging network in lockstep from a
//     Recording and nothing else — the recording names the ordering
//     function and its seed — reproducing the production execution
//     exactly (the paper's Theorem 1) and exposing stepping, breakpoints
//     and state inspection for interactive troubleshooting.
//
// Control-plane software plugs in through the Application interface; the
// repository ships OSPF-, BGP- and RIP-style daemons (including faithful
// reimplementations of the two bugs the paper's case studies debug).
//
// The production engine can additionally run sharded across cores
// (engine.shards): routers are partitioned over per-core shards that
// execute inside conservative lookahead windows and merge cross-shard
// traffic at a deterministic commit barrier, so committed orders,
// statistics and routing tables stay bit-identical to the sequential
// engine for any shard count — parallelism changes wall-clock speed only.
//
// Runs are described declaratively: a Spec (a committed JSON template —
// topology, per-domain protocol bindings, engine features, event and
// fault timelines, horizon) resolves into an immutable RunSpec with every
// default explicit and contradictory feature combinations rejected, and
// expands into a deterministic Plan that fingerprints without executing.
// NewNetworkFromSpec boots the plan. The spec's engine block (EngineSpec)
// is the one way an engine is configured: NewNetwork takes the same block
// for callers that bring their own topology and applications.
//
// A minimal production-then-debug session from a spec:
//
//	spec := defined.Spec{
//		Name:      "link-flap",
//		Topology:  scenario.TopologyRef{Kind: "sprintlink"},
//		Protocols: scenario.ProtocolSpec{OSPF: &scenario.OSPFSpec{}},
//		Engine:    scenario.EngineSpec{Record: &yes},
//		Events: []scenario.EventSpec{{At: scenario.Duration(defined.Seconds(1)),
//			Kind: "link-change", A: &a, B: &b, Up: &no}},
//		Horizon: scenario.HorizonSpec{Run: scenario.Duration(defined.Seconds(2))},
//	}
//	r, _ := spec.Resolve()          // explicit defaults, validated
//	p, _ := r.Expand()              // concrete plan; p.Fingerprint() pins it
//	net, _ := defined.NewNetworkFromSpec(r)
//	net.RunPlan(p)
//
//	rec := net.Recording()
//	rp, _ := defined.NewReplay(p.Graph, p.Apps(), rec)
//	rp.RunToEnd() // or StepEvent/StepRound/StepGroup, breakpoints, ...
//
// Or over a hand-built topology and applications (the same defaults and
// validation apply to the engine block):
//
//	net, err := defined.NewNetwork(g, apps, defined.EngineSpec{Record: &yes, Seed: &seed})
package defined

import (
	"defined/internal/msg"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// NodeID identifies a node (router) in a network.
type NodeID = msg.NodeID

// Application is the control-plane software interface nodes run; see
// internal/routing/api for the full contract.
type Application = api.Application

// Neighbor describes one adjacent router.
type Neighbor = api.Neighbor

// ExternalEvent is an event arriving from outside the instrumented
// network; external events are what partial recordings capture.
type ExternalEvent = api.ExternalEvent

// LinkChange is the built-in external event for link failures/repairs.
type LinkChange = api.LinkChange

// PeerRestart is the built-in external event the substrate delivers to a
// restarted node's live neighbors after a crash fault heals, so protocols
// can re-push state the fresh daemon cannot quickly recover on its own.
type PeerRestart = api.PeerRestart

// Out is a message emitted by an application.
type Out = msg.Out

// Message is a wire message delivered to an application.
type Message = msg.Message

// Recording is the partial recording of a production run, replayable in a
// debugging network.
type Recording = record.Recording

// Topology is a network graph.
type Topology = topology.Graph

// Link is one edge of a Topology.
type Link = topology.Link

// Time is a virtual timestamp (microseconds since the run began).
type Time = vtime.Time

// Duration is a span of virtual time.
type Duration = vtime.Duration

// Seconds converts seconds to a virtual timestamp.
func Seconds(s float64) Time { return Time(s * float64(vtime.Second)) }

// Sprintlink returns the 43-node Sprintlink-like evaluation topology.
func Sprintlink() *Topology { return topology.Sprintlink() }

// Ebone returns the 25-node Ebone-like evaluation topology.
func Ebone() *Topology { return topology.Ebone() }

// Level3 returns the 52-node Level3-like evaluation topology.
func Level3() *Topology { return topology.Level3() }

// Brite generates an n-node BRITE-like scale-free topology.
func Brite(n, m int, seed uint64) *Topology { return topology.Brite(n, m, seed) }

// NewTopology assembles a custom topology from explicit links.
func NewTopology(name string, n int, links []Link) (*Topology, error) {
	return topology.New(name, n, links)
}
