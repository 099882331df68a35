// Package scenario is the declarative front door to a DEFINED run: a
// three-layer contract that turns a committed description of an experiment
// into a deterministic, executable plan.
//
//   - Spec is the declarative template authors write (and commit as JSON):
//     a topology reference, per-domain protocol bindings, engine features,
//     external-event and fault timelines, and a run horizon. Spec fields
//     are optional; omitted fields mean "the documented default".
//
//   - RunSpec is the immutable resolved snapshot. Resolve writes every
//     default *explicitly* into the snapshot — a RunSpec has no implicit
//     defaults left, so two readers can never disagree about what a run
//     means — and validation rejects contradictory feature combinations
//     (Baseline with Shards, poison without a pool, inert lookahead, ...)
//     instead of silently ignoring one side.
//
//   - Plan is the deterministic, serializable expansion: the concrete
//     topology (generated if the spec references a generator), one
//     NodePlan per router (role, protocol bindings, OSPF domain base), a
//     copy of the resolved engine block, the resolved driver-event schedule
//     and the fault plan. Expanding the same RunSpec always yields a Plan
//     with the same Fingerprint, and a Plan can be fingerprinted without
//     executing anything — that is the dry-run mode committed specs are
//     pinned by.
//
// The engine block is the rollback engine's own: EngineSpec, ResolveEngine
// and the spec Duration type (vtime.Span) are re-exported here, and
// Resolve applies rollback's one default table and contradiction rules to
// the block, naming the scenario in their errors. The engine runs the
// resolved block the Plan carries as it is.
//
// # Determinism rules
//
// Everything the plan contains is a pure function of the resolved spec:
// topology generators are seeded, fault plans are seeded, event schedules
// are sorted by (time, spec order), and the fingerprint hashes the
// canonical JSON of the resolved spec plus every expanded structure. No
// wall-clock time, no map iteration order, no global randomness
// participates — the scenario layer obeys the same detlint invariants as
// the engine it feeds, so a committed spec file is a reproducible
// artifact: same file, same binary, same committed execution.
//
// Mixed-protocol plans bind protocols to the roles the hierarchical
// topology generator assigns: OSPF inside each AS (domain-based state,
// foreign LSAs ignored), BGP between AS border routers, RIP on stub
// chains. Nodes speaking several protocols run them as one composite
// application whose parts see disjoint, role-filtered neighbor sets.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"defined/internal/rollback"
	"defined/internal/routing/bgp"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// ParseSpec decodes a JSON scenario template. Unknown fields are
// rejected — a typo in a committed spec must fail loudly, not silently
// resolve to a default.
func ParseSpec(raw []byte) (Spec, error) {
	var s Spec
	if err := DecodeStrict(raw, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %v", err)
	}
	return s, nil
}

// DecodeStrict decodes a committed spec file into v: one JSON value, no
// field v does not have, nothing after it.
func DecodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("trailing data after the spec object")
	}
	return nil
}

// Duration is a virtual-time span as spec files write it ("250ms").
type Duration = vtime.Span

// Dur converts a virtual duration into a spec Duration pointer (builders).
func Dur(v vtime.Duration) *Duration { return vtime.Dur(v) }

// EngineSpec is the engine block. The rollback engine owns it: its
// fields, its one default table and its contradiction rules.
type EngineSpec = rollback.EngineSpec

// ResolveEngine resolves and validates a bare engine block — the path
// defined.NewNetwork takes, where the caller brings the topology and the
// applications and there is no scenario around the engine block.
func ResolveEngine(e EngineSpec) (EngineSpec, error) { return rollback.ResolveEngine(e) }

// Spec is the declarative scenario template. Every field not marked
// required may be omitted; Resolve writes the documented default into the
// snapshot explicitly. The zero Spec is invalid (it names no topology).
type Spec struct {
	// Name identifies the scenario in plans, dumps and bench output.
	Name string `json:"name"`
	// Topology is the substrate graph reference (required).
	Topology TopologyRef `json:"topology"`
	// Protocols binds routing protocols to topology domains (required:
	// at least one binding; hierarchical topologies require OSPF).
	Protocols ProtocolSpec `json:"protocols"`
	// Engine selects substrate features. The zero value resolves to the
	// production defaults (OO ordering, TM/MI checkpoints, deferral on).
	Engine EngineSpec `json:"engine"`
	// Events is the external-event timeline (sorted by time at expansion;
	// equal times keep spec order).
	Events []EventSpec `json:"events,omitempty"`
	// Faults, when set, schedules a seeded-random fault plan.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Horizon bounds the run (required: Run > 0).
	Horizon HorizonSpec `json:"horizon"`
}

// TopologyRef names the substrate graph: a fixed evaluation topology, a
// seeded generator, or the hierarchical mixed-protocol generator.
type TopologyRef struct {
	// Kind is one of "sprintlink", "ebone", "level3", "brite", "line",
	// "hier".
	Kind string `json:"kind"`
	// Nodes is the node count for "brite" and "line".
	Nodes int `json:"nodes,omitempty"`
	// Degree is the preferential-attachment degree for "brite"
	// (default 2).
	Degree int `json:"degree,omitempty"`
	// Seed seeds the "brite" generator (default: the engine seed).
	Seed *uint64 `json:"seed,omitempty"`
	// Delay is the per-link delay for "line" (default 1ms).
	Delay *Duration `json:"delay,omitempty"`
	// Hier parameterizes the "hier" generator. All fields are explicit
	// (the generator validates them); see topology.HierConfig.
	Hier *topology.HierConfig `json:"hier,omitempty"`
}

// ProtocolSpec binds per-domain protocols. On flat topologies exactly one
// binding must be present and every node runs it. On hierarchical
// topologies OSPF is required (intra-AS), BGP runs on AS borders and RIP
// on stub chains; a hierarchy that generated borders without a BGP
// binding (or stubs without RIP) is rejected at expansion.
type ProtocolSpec struct {
	OSPF *OSPFSpec `json:"ospf,omitempty"`
	BGP  *BGPSpec  `json:"bgp,omitempty"`
	RIP  *RIPSpec  `json:"rip,omitempty"`
}

// OSPFSpec configures the OSPF daemons.
type OSPFSpec struct {
	// HelloInterval is the keepalive period (default 1s).
	HelloInterval *Duration `json:"helloInterval,omitempty"`
	// DeadInterval is adjacency expiry without hellos (default 4×hello).
	DeadInterval *Duration `json:"deadInterval,omitempty"`
	// FloodHolddown delays LSA propagation to the next timer tick
	// (default 0s — the paper's modified XORP).
	FloodHolddown *Duration `json:"floodHolddown,omitempty"`
}

// BGPSpec configures the BGP daemons on border routers.
type BGPSpec struct {
	// Mode is "xorp04" (the case-study decision bug, default) or
	// "fixed" (full correct decision process).
	Mode string `json:"mode,omitempty"`
}

// RIPSpec configures the RIP daemons on stub chains.
type RIPSpec struct {
	// Mode is "quagga0965" (the case-study timer bug, default) or
	// "fixed".
	Mode string `json:"mode,omitempty"`
	// UpdateInterval is the periodic announcement period (default 30s).
	UpdateInterval *Duration `json:"updateInterval,omitempty"`
	// Timeout is the route-expiry deadline (default 180s).
	Timeout *Duration `json:"timeout,omitempty"`
	// SplitHorizon suppresses advertising routes back to their next hop
	// (default false — plain RIP, matching the daemons' zero config).
	SplitHorizon *bool `json:"splitHorizon,omitempty"`
}

// EventSpec is one external event on the timeline.
type EventSpec struct {
	// At is the virtual firing time.
	At Duration `json:"at"`
	// Kind is "link-change", "bgp-announce" or "rip-originate".
	Kind string `json:"kind"`
	// Node receives the event (bgp-announce, rip-originate).
	Node int `json:"node,omitempty"`
	// A, B are the link endpoints and Up its new state (link-change).
	A  *int  `json:"a,omitempty"`
	B  *int  `json:"b,omitempty"`
	Up *bool `json:"up,omitempty"`
	// Path is the announced route (bgp-announce).
	Path *bgp.Path `json:"path,omitempty"`
	// Prefix and Metric describe the originated route (rip-originate).
	Prefix string `json:"prefix,omitempty"`
	Metric int    `json:"metric,omitempty"`
}

// FaultSpec schedules a seeded-random fault plan (see faults.Random): every
// fault is paired with its repair inside [Start, End], so the network is
// whole again at End.
type FaultSpec struct {
	// Seed seeds the plan (default: the engine seed).
	Seed *uint64 `json:"seed,omitempty"`
	// Start..End is the fault window (required: End > Start).
	Start Duration `json:"start"`
	End   Duration `json:"end"`
	// Crashes is the number of crash/restart pairs (default 2, min 1).
	Crashes *int `json:"crashes,omitempty"`
	// Flaps is the number of link down/up pairs (default 2, min 1).
	Flaps *int `json:"flaps,omitempty"`
	// Partitions is the number of partition/heal pairs (default 1, min 1).
	Partitions *int `json:"partitions,omitempty"`
	// MinRepair is the minimum downtime before a repair (default 500ms).
	MinRepair *Duration `json:"minRepair,omitempty"`
}

// HorizonSpec bounds the run.
type HorizonSpec struct {
	// Run is the virtual time to run to (required > 0).
	Run Duration `json:"run"`
	// Drain runs the network to quiescence after Run (default true).
	Drain *bool `json:"drain,omitempty"`
}

func ptr[T any](v T) *T { return &v }
