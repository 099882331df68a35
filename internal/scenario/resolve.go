package scenario

// Resolution: Spec → RunSpec. Resolve deep-copies the template, writes
// every default explicitly into the copy, and validates the result. The
// returned RunSpec is an immutable snapshot — its spec is private, and the
// Spec() accessor hands out a fresh deep copy — so nothing can drift
// between resolution and expansion.

import (
	"encoding/json"
	"errors"
	"fmt"

	"defined/internal/rollback"
	"defined/internal/vtime"
)

// RunSpec is a fully-resolved, validated, immutable scenario snapshot.
// Every optional Spec field has been written explicitly; no consumer ever
// applies a default again.
type RunSpec struct {
	spec Spec
}

// deepCopy clones a Spec (or its engine block) through its canonical JSON
// form. The spec types are built to round-trip exactly (Duration marshals
// losslessly), so this is both the copy and the canonicalization used by
// fingerprints.
func deepCopy[T Spec | EngineSpec](s T) (T, error) {
	var out T
	b, err := json.Marshal(s)
	if err != nil {
		return out, fmt.Errorf("scenario: spec not serializable: %v", err)
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, fmt.Errorf("scenario: spec round-trip failed: %v", err)
	}
	return out, nil
}

// Resolve produces the immutable RunSpec: a deep copy with every default
// written explicitly, validated for internal consistency. Contradictory
// feature combinations are errors, never silently ignored.
func (s Spec) Resolve() (RunSpec, error) {
	r, err := deepCopy(s)
	if err != nil {
		return RunSpec{}, err
	}
	// A contradictory engine block still comes back defaulted; validate
	// reports its error in the engine's place in the rule order.
	eng, engErr := rollback.ResolveEngine(r.Engine)
	r.Engine = eng
	resolveTopology(&r.Topology, *r.Engine.Seed)
	resolveProtocols(&r.Protocols)
	if r.Faults != nil {
		resolveFaults(r.Faults, *r.Engine.Seed)
	}
	if r.Horizon.Drain == nil {
		r.Horizon.Drain = ptr(true)
	}
	if err := validate(r, engErr); err != nil {
		return RunSpec{}, err
	}
	return RunSpec{spec: r}, nil
}

// Spec returns a deep copy of the resolved snapshot (callers cannot mutate
// the RunSpec through it).
func (r RunSpec) Spec() Spec {
	c, err := deepCopy(r.spec)
	if err != nil {
		// The spec already round-tripped during Resolve.
		panic(fmt.Sprintf("scenario: resolved spec stopped round-tripping: %v", err))
	}
	return c
}

// Name returns the scenario name.
func (r RunSpec) Name() string { return r.spec.Name }

// MarshalJSON renders the resolved snapshot — every default explicit — so
// a committed RunSpec rendering is self-describing.
func (r RunSpec) MarshalJSON() ([]byte, error) { return json.Marshal(r.spec) }

func resolveTopology(t *TopologyRef, engineSeed uint64) {
	if t.Kind == "brite" {
		if t.Degree == 0 {
			t.Degree = 2
		}
		if t.Seed == nil {
			t.Seed = ptr(engineSeed)
		}
	}
	if t.Kind == "line" && t.Delay == nil {
		t.Delay = Dur(vtime.Millisecond)
	}
}

func resolveProtocols(p *ProtocolSpec) {
	if p.OSPF != nil {
		if p.OSPF.HelloInterval == nil {
			p.OSPF.HelloInterval = Dur(vtime.Second)
		}
		if p.OSPF.DeadInterval == nil {
			p.OSPF.DeadInterval = Dur(4 * p.OSPF.HelloInterval.V())
		}
		if p.OSPF.FloodHolddown == nil {
			p.OSPF.FloodHolddown = Dur(0)
		}
	}
	if p.BGP != nil && p.BGP.Mode == "" {
		p.BGP.Mode = "xorp04"
	}
	if p.RIP != nil {
		if p.RIP.Mode == "" {
			p.RIP.Mode = "quagga0965"
		}
		if p.RIP.UpdateInterval == nil {
			p.RIP.UpdateInterval = Dur(30 * vtime.Second)
		}
		if p.RIP.Timeout == nil {
			p.RIP.Timeout = Dur(180 * vtime.Second)
		}
		if p.RIP.SplitHorizon == nil {
			p.RIP.SplitHorizon = ptr(false)
		}
	}
}

func resolveFaults(f *FaultSpec, engineSeed uint64) {
	if f.Seed == nil {
		f.Seed = ptr(engineSeed)
	}
	if f.Crashes == nil {
		f.Crashes = ptr(2)
	}
	if f.Flaps == nil {
		f.Flaps = ptr(2)
	}
	if f.Partitions == nil {
		f.Partitions = ptr(1)
	}
	if f.MinRepair == nil {
		f.MinRepair = Dur(500 * vtime.Millisecond)
	}
}

// topologyKinds is the closed set TopologyRef.Kind draws from.
var topologyKinds = map[string]bool{
	"sprintlink": true, "ebone": true, "level3": true,
	"brite": true, "line": true, "hier": true,
}

// validate rejects contradictory resolved specs. Every rule names both
// sides of the contradiction so spec authors know which line to change.
// engErr is the engine block's ResolveEngine error.
func validate(s Spec, engErr error) error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	t := s.Topology
	switch {
	case !topologyKinds[t.Kind]:
		return fmt.Errorf("scenario %s: unknown topology kind %q", s.Name, t.Kind)
	case (t.Kind == "brite" || t.Kind == "line") && t.Nodes < 2:
		return fmt.Errorf("scenario %s: topology %q needs nodes >= 2, got %d", s.Name, t.Kind, t.Nodes)
	case t.Kind == "hier" && t.Hier == nil:
		return fmt.Errorf("scenario %s: topology \"hier\" needs the hier block", s.Name)
	case t.Kind != "hier" && t.Hier != nil:
		return fmt.Errorf("scenario %s: hier block set on non-hier topology %q", s.Name, t.Kind)
	}

	bindings := 0
	for _, b := range []bool{s.Protocols.OSPF != nil, s.Protocols.BGP != nil, s.Protocols.RIP != nil} {
		if b {
			bindings++
		}
	}
	switch {
	case bindings == 0:
		return fmt.Errorf("scenario %s: no protocol binding", s.Name)
	case t.Kind == "hier" && s.Protocols.OSPF == nil:
		return fmt.Errorf("scenario %s: hierarchical topologies require an OSPF binding (intra-AS domains)", s.Name)
	case t.Kind != "hier" && bindings != 1:
		return fmt.Errorf("scenario %s: flat topology %q binds exactly one protocol, got %d", s.Name, t.Kind, bindings)
	}
	if b := s.Protocols.BGP; b != nil && b.Mode != "xorp04" && b.Mode != "fixed" {
		return fmt.Errorf("scenario %s: unknown bgp mode %q (want xorp04 or fixed)", s.Name, b.Mode)
	}
	if rp := s.Protocols.RIP; rp != nil {
		if rp.Mode != "quagga0965" && rp.Mode != "fixed" {
			return fmt.Errorf("scenario %s: unknown rip mode %q (want quagga0965 or fixed)", s.Name, rp.Mode)
		}
		if rp.UpdateInterval.V() <= 0 || rp.Timeout.V() <= 0 {
			return fmt.Errorf("scenario %s: rip intervals must be positive", s.Name)
		}
	}
	if o := s.Protocols.OSPF; o != nil && (o.HelloInterval.V() <= 0 || o.DeadInterval.V() <= 0) {
		return fmt.Errorf("scenario %s: ospf intervals must be positive", s.Name)
	}

	if engErr != nil {
		return fmt.Errorf("scenario %s: %v", s.Name, errors.Unwrap(engErr))
	}

	for i, ev := range s.Events {
		if err := validateEvent(s.Name, i, ev); err != nil {
			return err
		}
	}
	if f := s.Faults; f != nil {
		switch {
		case f.End.V() <= f.Start.V():
			return fmt.Errorf("scenario %s: fault window end %s not after start %s",
				s.Name, f.End, f.Start)
		case *f.Crashes < 1 || *f.Flaps < 1 || *f.Partitions < 1:
			return fmt.Errorf("scenario %s: fault counts must be >= 1 (omit the faults block for a fault-free run)", s.Name)
		case f.MinRepair.V() <= 0:
			return fmt.Errorf("scenario %s: fault minRepair must be positive", s.Name)
		case *s.Engine.Baseline:
			return fmt.Errorf("scenario %s: fault plan with baseline engine — crash faults need the substrate", s.Name)
		case *s.Engine.Record:
			return fmt.Errorf("scenario %s: fault plan with record — a crash is not recorded and replay has no crash model", s.Name)
		}
	}
	if s.Horizon.Run.V() <= 0 {
		return fmt.Errorf("scenario %s: horizon run must be positive", s.Name)
	}
	return nil
}

func validateEvent(name string, i int, ev EventSpec) error {
	if ev.At.V() < 0 {
		return fmt.Errorf("scenario %s: event %d fires at negative time", name, i)
	}
	switch ev.Kind {
	case "link-change":
		if ev.A == nil || ev.B == nil || ev.Up == nil {
			return fmt.Errorf("scenario %s: event %d: link-change needs a, b and up", name, i)
		}
	case "bgp-announce":
		if ev.Path == nil || ev.Path.Prefix == "" || ev.Path.Name == "" {
			return fmt.Errorf("scenario %s: event %d: bgp-announce needs a path with name and prefix", name, i)
		}
	case "rip-originate":
		if ev.Prefix == "" {
			return fmt.Errorf("scenario %s: event %d: rip-originate needs a prefix", name, i)
		}
	default:
		return fmt.Errorf("scenario %s: event %d: unknown kind %q", name, i, ev.Kind)
	}
	return nil
}
