package scenario

// Resolution: Spec → RunSpec. Resolve deep-copies the template, writes
// every default explicitly into the copy, and validates the result. The
// returned RunSpec is an immutable snapshot — its spec is private, and the
// Spec() accessor hands out a fresh deep copy — so nothing can drift
// between resolution and expansion.

import (
	"encoding/json"
	"fmt"
	"strings"

	"defined/internal/checkpoint"
	"defined/internal/ordering"
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
	resolveEngine(&r.Engine)
	resolveTopology(&r.Topology, *r.Engine.Seed)
	resolveProtocols(&r.Protocols)
	if r.Faults != nil {
		resolveFaults(r.Faults, *r.Engine.Seed)
	}
	if r.Horizon.Drain == nil {
		r.Horizon.Drain = boolp(true)
	}
	if err := validate(r); err != nil {
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

// resolveEngine writes every engine default explicitly.
func resolveEngine(e *EngineSpec) {
	if e.Baseline == nil {
		e.Baseline = boolp(false)
	}
	if e.Ordering == "" {
		e.Ordering = "OO"
	}
	if e.Seed == nil {
		e.Seed = u64p(0)
	}
	if e.OrderingSeed == nil {
		e.OrderingSeed = u64p(*e.Seed)
	}
	if e.Strategy == "" {
		e.Strategy = checkpoint.Default.String()
	}
	if e.JitterScale == nil {
		e.JitterScale = f64p(1.0)
	}
	if e.ChainBound == nil {
		e.ChainBound = intp(64)
	}
	if e.SettleBound == nil {
		e.SettleBound = durp(0) // adaptive estimator
	}
	if e.Deferral == nil {
		// Deferral predicts predecessors from ordering keys; random
		// ordering defeats the prediction, so RO runs default it off.
		e.Deferral = boolp(e.Ordering != "RO")
	}
	if e.DeferSlack == nil {
		e.DeferSlack = durp(8 * vtime.Millisecond)
	}
	if e.DeferMax == nil {
		e.DeferMax = durp(100 * vtime.Millisecond)
	}
	if e.Shards == nil {
		e.Shards = intp(0)
	}
	if e.Lookahead == nil {
		e.Lookahead = boolp(false)
	}
	if e.PerLinkLoss == nil {
		e.PerLinkLoss = f64p(0)
	}
	if e.Duplication == nil {
		e.Duplication = f64p(0)
	}
	if e.MessagePool == nil {
		e.MessagePool = boolp(true)
	}
	if e.RouteCache == nil {
		e.RouteCache = boolp(true)
	}
	if e.Poison == nil {
		e.Poison = boolp(false)
	}
	if e.Record == nil {
		e.Record = boolp(false)
	}
	if e.DeliveryLog == nil {
		e.DeliveryLog = boolp(false)
	}
}

func resolveTopology(t *TopologyRef, engineSeed uint64) {
	if t.Kind == "brite" {
		if t.Degree == 0 {
			t.Degree = 2
		}
		if t.Seed == nil {
			t.Seed = u64p(engineSeed)
		}
	}
	if t.Kind == "line" && t.Delay == nil {
		t.Delay = durp(vtime.Millisecond)
	}
}

func resolveProtocols(p *ProtocolSpec) {
	if p.OSPF != nil {
		if p.OSPF.HelloInterval == nil {
			p.OSPF.HelloInterval = durp(vtime.Second)
		}
		if p.OSPF.DeadInterval == nil {
			p.OSPF.DeadInterval = durp(4 * p.OSPF.HelloInterval.V())
		}
		if p.OSPF.FloodHolddown == nil {
			p.OSPF.FloodHolddown = durp(0)
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
			p.RIP.UpdateInterval = durp(30 * vtime.Second)
		}
		if p.RIP.Timeout == nil {
			p.RIP.Timeout = durp(180 * vtime.Second)
		}
		if p.RIP.SplitHorizon == nil {
			p.RIP.SplitHorizon = boolp(false)
		}
	}
}

func resolveFaults(f *FaultSpec, engineSeed uint64) {
	if f.Seed == nil {
		f.Seed = u64p(engineSeed)
	}
	if f.Crashes == nil {
		f.Crashes = intp(2)
	}
	if f.Flaps == nil {
		f.Flaps = intp(2)
	}
	if f.Partitions == nil {
		f.Partitions = intp(1)
	}
	if f.MinRepair == nil {
		f.MinRepair = durp(500 * vtime.Millisecond)
	}
}

// topologyKinds is the closed set TopologyRef.Kind draws from.
var topologyKinds = map[string]bool{
	"sprintlink": true, "ebone": true, "level3": true,
	"brite": true, "line": true, "hier": true,
}

// validate rejects contradictory resolved specs. Every rule names both
// sides of the contradiction so spec authors know which line to change.
func validate(s Spec) error {
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

	if err := validateEngine(s.Name, s.Engine); err != nil {
		return err
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
				s.Name, formatDuration(f.End.V()), formatDuration(f.Start.V()))
		case *f.Crashes < 1 || *f.Flaps < 1 || *f.Partitions < 1:
			return fmt.Errorf("scenario %s: fault counts must be >= 1 (omit the faults block for a fault-free run)", s.Name)
		case f.MinRepair.V() <= 0:
			return fmt.Errorf("scenario %s: fault minRepair must be positive", s.Name)
		case *s.Engine.Baseline:
			return fmt.Errorf("scenario %s: fault plan with baseline engine — crash faults need the substrate", s.Name)
		}
	}
	if s.Horizon.Run.V() <= 0 {
		return fmt.Errorf("scenario %s: horizon run must be positive", s.Name)
	}
	return nil
}

// validateEngine is the contradiction table for resolved engine specs.
func validateEngine(name string, e EngineSpec) error {
	if _, err := ordering.ByName(e.Ordering, *e.OrderingSeed); err != nil {
		return fmt.Errorf("scenario %s: %v", name, err)
	}
	if _, err := parseStrategy(e.Strategy); err != nil {
		return fmt.Errorf("scenario %s: %v", name, err)
	}
	switch {
	case *e.Baseline && *e.Shards > 0:
		return fmt.Errorf("scenario %s: baseline with shards=%d — the baseline has no rollback layer to shard", name, *e.Shards)
	case *e.Baseline && *e.Lookahead:
		return fmt.Errorf("scenario %s: baseline with lookahead — the baseline has no speculation to bound", name)
	case *e.Poison && !*e.MessagePool:
		return fmt.Errorf("scenario %s: message poison without the message pool — poison is a pool debug mode", name)
	case *e.Lookahead && !*e.Deferral && *e.Shards == 0:
		return fmt.Errorf("scenario %s: lookahead with deferral off and no shards — nothing consumes the per-link bounds", name)
	case *e.Deferral && e.Ordering == "RO":
		return fmt.Errorf("scenario %s: deferral with RO ordering — random ordering defeats predecessor prediction", name)
	case *e.PerLinkLoss < 0 || *e.PerLinkLoss > 1:
		return fmt.Errorf("scenario %s: perLinkLoss %g outside [0,1]", name, *e.PerLinkLoss)
	case *e.Duplication < 0 || *e.Duplication > 1:
		return fmt.Errorf("scenario %s: duplication %g outside [0,1]", name, *e.Duplication)
	case *e.JitterScale < 0:
		return fmt.Errorf("scenario %s: jitterScale %g negative", name, *e.JitterScale)
	case *e.Shards < 0:
		return fmt.Errorf("scenario %s: shards %d negative", name, *e.Shards)
	case *e.ChainBound < 1:
		return fmt.Errorf("scenario %s: chainBound %d must be >= 1", name, *e.ChainBound)
	case *e.Deferral && e.DeferSlack.V() <= 0:
		return fmt.Errorf("scenario %s: deferral enabled with non-positive slack %s", name, formatDuration(e.DeferSlack.V()))
	case *e.Deferral && e.DeferMax.V() < e.DeferSlack.V():
		return fmt.Errorf("scenario %s: deferMax %s below deferSlack %s", name,
			formatDuration(e.DeferMax.V()), formatDuration(e.DeferSlack.V()))
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

// parseStrategy parses the "Timing/Mode" rendering checkpoint.Strategy
// prints ("TM/MI", "TF/FK", ...).
func parseStrategy(s string) (checkpoint.Strategy, error) {
	var out checkpoint.Strategy
	timing, mode, ok := strings.Cut(s, "/")
	if !ok {
		return out, fmt.Errorf("bad checkpoint strategy %q (want Timing/Mode like \"TM/MI\")", s)
	}
	switch timing {
	case "TF":
		out.Timing = checkpoint.TF
	case "PF":
		out.Timing = checkpoint.PF
	case "TM":
		out.Timing = checkpoint.TM
	default:
		return out, fmt.Errorf("bad checkpoint timing %q (want TF, PF or TM)", timing)
	}
	switch mode {
	case "FK":
		out.Mode = checkpoint.FK
	case "MI":
		out.Mode = checkpoint.MI
	default:
		return out, fmt.Errorf("bad checkpoint mode %q (want FK or MI)", mode)
	}
	return out, nil
}

// ResolveEngine resolves and validates a bare engine spec — the path
// defined.NewNetwork takes, where the caller brings the topology and the
// applications and there is no scenario around the engine block.
func ResolveEngine(e EngineSpec) (EngineSpec, error) {
	c, err := deepCopy(e)
	if err != nil {
		return EngineSpec{}, err
	}
	resolveEngine(&c)
	if err := validateEngine("(engine)", c); err != nil {
		return EngineSpec{}, err
	}
	return c, nil
}

// Config materializes a *resolved* engine spec into the rollback engine
// configuration. Every spec-controlled field is written explicitly, so the
// mapping — not the engine's default-filling — is the single source of
// truth for what a spec means. (The engine still owns the one value a spec
// does not control, the beacon interval.)
func (e EngineSpec) Config() (rollback.Config, error) {
	ord, err := ordering.ByName(e.Ordering, *e.OrderingSeed)
	if err != nil {
		return rollback.Config{}, err
	}
	strat, err := parseStrategy(e.Strategy)
	if err != nil {
		return rollback.Config{}, err
	}
	cfg := rollback.Config{
		Ordering:       ord,
		Strategy:       strat,
		StrategySet:    true,
		Baseline:       *e.Baseline,
		ChainBound:     *e.ChainBound,
		SettleAfter:    e.SettleBound.V(),
		Seed:           *e.Seed,
		JitterScale:    *e.JitterScale,
		DropProb:       *e.PerLinkLoss,
		DupProb:        *e.Duplication,
		NoMessagePool:  !*e.MessagePool,
		NoRouteCache:   !*e.RouteCache,
		PoisonMessages: *e.Poison,
		Shards:         *e.Shards,
		Lookahead:      *e.Lookahead,
		Record:         *e.Record,
		LogDeliveries:  *e.DeliveryLog,
	}
	if *e.Deferral {
		cfg.DeferSlack = e.DeferSlack.V()
		cfg.DeferMax = e.DeferMax.V()
	} else {
		cfg.DeferSlack = -1
	}
	return cfg, nil
}
