package defined

// The scenario front door. Committed scenario files resolve into a
// RunSpec (every default explicit, contradictions rejected), expand into
// a Plan (concrete topology, per-node protocol bindings, driver-event
// schedule — fingerprintable without executing), and boot here.
// NewNetwork, for callers that bring their own topology and applications,
// takes the same engine block and resolves it through the same defaulting
// and validation table.

import (
	"defined/internal/rollback"
	"defined/internal/scenario"
)

// Spec is a declarative scenario template (see internal/scenario).
type Spec = scenario.Spec

// EngineSpec is a Spec's engine block — the one way an engine is
// configured, here and in NewNetwork.
type EngineSpec = scenario.EngineSpec

// RunSpec is a resolved, immutable scenario snapshot.
type RunSpec = scenario.RunSpec

// Plan is the deterministic expansion of a RunSpec.
type Plan = scenario.Plan

// NewNetworkFromSpec is the primary constructor: it expands the resolved
// scenario and boots the network it describes — generated topology,
// per-node protocol bindings (composites on borders and gateways),
// engine configuration, with the external-event timeline and fault plan
// scheduled. Run the horizon with RunPlan.
func NewNetworkFromSpec(r RunSpec) (*Network, error) {
	p, err := r.Expand()
	if err != nil {
		return nil, err
	}
	return NewNetworkFromPlan(p), nil
}

// NewNetworkFromPlan boots a network from an already-expanded plan.
// Useful when the caller needs the plan too (fingerprints, node roles,
// protocol unwrappers); NewNetworkFromSpec is the common path.
func NewNetworkFromPlan(p *Plan) *Network {
	net := &Network{eng: rollback.New(p.Graph, p.Apps(), p.Engine), g: p.Graph}
	for _, ev := range p.Events {
		if ev.IsLink {
			net.At(ev.At, func() { net.eng.InjectLinkChange(ev.A, ev.B, ev.Up) })
		} else {
			net.At(ev.At, func() { net.eng.InjectExternal(ev.Node, ev.Ev) })
		}
	}
	net.ScheduleFaults(p.Faults)
	return net
}

// RunPlan advances the network through the plan's horizon: run to the
// configured stop time, then drain to quiescence when the plan asks for
// it. It reports whether the network is known quiescent on return (true
// only on a drained plan that quiesced within the event budget).
func (n *Network) RunPlan(p *Plan) bool {
	n.Run(p.RunUntil)
	if p.Drain {
		return n.Drain()
	}
	return false
}
