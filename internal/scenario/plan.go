package scenario

// Expansion: RunSpec → Plan. The plan is the deterministic, fully concrete
// form of a scenario — generated topology, per-node protocol bindings,
// engine configuration, sorted driver-event schedule and fault plan — and
// it fingerprints without executing anything (the dry-run mode committed
// spec files are pinned by).

import (
	"fmt"
	"hash/fnv"
	"sort"

	"defined/internal/faults"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/ospf"
	"defined/internal/routing/rip"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Auto-generated route origination times for hierarchical plans: stubs
// originate their host prefix once RIP has booted, borders announce their
// AS prefix once the intra-AS OSPF flood has settled. Both are plan
// content (fingerprinted), not runtime choices.
const (
	stubOriginateAt  = vtime.Time(vtime.Second)
	borderAnnounceAt = vtime.Time(2 * vtime.Second)
)

// NodePlan is one router's expanded binding: which AS block it lives in,
// the role the generator assigned, and the protocols it runs.
type NodePlan struct {
	ID   msg.NodeID
	AS   int
	Role topology.Role
	// Protocols lists the daemon kinds in composite order ("ospf",
	// "bgp", "rip").
	Protocols []string
	// DomainBase is the OSPF daemon's id-space base (the AS block base on
	// hierarchical plans, 0 on flat ones).
	DomainBase msg.NodeID
}

// DriverEvent is one resolved timeline entry: either an external event
// delivered to a node, or a substrate link flip.
type DriverEvent struct {
	At   vtime.Time
	Node msg.NodeID
	Ev   api.ExternalEvent
	// IsLink marks a substrate link flip (A/B/Up) instead of a node event.
	IsLink bool
	A, B   int
	Up     bool
}

// Plan is the deterministic expansion of a RunSpec.
type Plan struct {
	Run   RunSpec
	Graph *topology.Graph
	// Hier carries the domain metadata on hierarchical plans (nil for
	// flat topologies).
	Hier  *topology.Hierarchy
	Nodes []NodePlan
	// Engine is the resolved engine block, a copy: editing it cannot
	// reach the RunSpec.
	Engine EngineSpec
	Events []DriverEvent
	// Faults is the expanded fault plan (nil when the spec has none).
	Faults   *faults.Plan
	RunUntil vtime.Time
	Drain    bool
}

// Expand materializes the plan. It builds (or generates) the topology,
// assigns per-node protocol bindings, copies the resolved engine block,
// resolves the event timeline and expands the fault plan. Expansion
// executes nothing.
func (r RunSpec) Expand() (*Plan, error) {
	s := r.spec
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: Expand on an unresolved RunSpec")
	}
	p := &Plan{Run: r, RunUntil: vtime.Time(s.Horizon.Run.V()), Drain: *s.Horizon.Drain}

	if err := p.expandTopology(s); err != nil {
		return nil, err
	}
	if err := p.expandNodes(s); err != nil {
		return nil, err
	}
	eng, err := deepCopy(s.Engine)
	if err != nil {
		return nil, err
	}
	p.Engine = eng
	if err := p.expandEvents(s); err != nil {
		return nil, err
	}
	if f := s.Faults; f != nil {
		p.Faults = faults.Random(p.Graph, *f.Seed, faults.RandomConfig{
			Start: vtime.Time(f.Start.V()), End: vtime.Time(f.End.V()),
			Crashes: *f.Crashes, Flaps: *f.Flaps, Partitions: *f.Partitions,
			MinRepair: f.MinRepair.V(),
		})
	}
	return p, nil
}

func (p *Plan) expandTopology(s Spec) error {
	t := s.Topology
	switch t.Kind {
	case "sprintlink":
		p.Graph = topology.Sprintlink()
	case "ebone":
		p.Graph = topology.Ebone()
	case "level3":
		p.Graph = topology.Level3()
	case "brite":
		p.Graph = topology.Brite(t.Nodes, t.Degree, *t.Seed)
	case "line":
		p.Graph = topology.Line(t.Nodes, t.Delay.V())
	case "hier":
		h, err := topology.Hier(*t.Hier)
		if err != nil {
			return fmt.Errorf("scenario %s: %v", s.Name, err)
		}
		p.Hier, p.Graph = h, h.Graph
	default:
		return fmt.Errorf("scenario %s: unknown topology kind %q", s.Name, t.Kind)
	}
	return nil
}

func (p *Plan) expandNodes(s Spec) error {
	if p.Hier == nil {
		// Flat topology: every node runs the single bound protocol.
		var proto string
		switch {
		case s.Protocols.OSPF != nil:
			proto = "ospf"
		case s.Protocols.BGP != nil:
			proto = "bgp"
		case s.Protocols.RIP != nil:
			proto = "rip"
		}
		p.Nodes = make([]NodePlan, p.Graph.N)
		for i := range p.Nodes {
			p.Nodes[i] = NodePlan{ID: msg.NodeID(i), Protocols: []string{proto}}
		}
		return nil
	}

	h := p.Hier
	hasBorderLinks := len(h.ASLinks) > 0
	hasStubs := false
	for _, gw := range h.Gateways {
		if gw >= 0 {
			hasStubs = true
		}
	}
	if hasBorderLinks && s.Protocols.BGP == nil {
		return fmt.Errorf("scenario %s: hierarchy has AS border links but no BGP binding", s.Name)
	}
	if hasStubs && s.Protocols.RIP == nil {
		return fmt.Errorf("scenario %s: hierarchy has stub chains but no RIP binding", s.Name)
	}

	p.Nodes = make([]NodePlan, h.N)
	for i := range p.Nodes {
		a := h.AS[i]
		np := NodePlan{ID: msg.NodeID(i), AS: a, Role: h.Role[i], DomainBase: msg.NodeID(h.ASBase[a])}
		switch h.Role[i] {
		case topology.RoleStub:
			np.Protocols = []string{"rip"}
			np.DomainBase = 0 // stubs run no OSPF; the base is meaningless
		case topology.RoleBorder:
			np.Protocols = []string{"ospf"}
			if hasBorderLinks {
				np.Protocols = append(np.Protocols, "bgp")
			}
		case topology.RoleGateway:
			np.Protocols = []string{"ospf", "rip"}
		default:
			np.Protocols = []string{"ospf"}
		}
		p.Nodes[i] = np
	}
	return nil
}

// expandEvents resolves the spec timeline and, on hierarchical plans,
// appends the generated route originations: every stub router originates
// its host prefix ("n<id>") into RIP, every border announces its AS prefix
// ("as<index>") into BGP. The merged schedule is sorted by time, stably,
// with spec events before generated ones at equal times.
func (p *Plan) expandEvents(s Spec) error {
	for i, ev := range s.Events {
		de := DriverEvent{At: vtime.Time(ev.At.V())}
		switch ev.Kind {
		case "link-change":
			if _, ok := p.Graph.LinkBetween(*ev.A, *ev.B); !ok {
				return fmt.Errorf("scenario %s: event %d: no link %d-%d in topology", s.Name, i, *ev.A, *ev.B)
			}
			de.IsLink, de.A, de.B, de.Up = true, *ev.A, *ev.B, *ev.Up
		case "bgp-announce":
			if err := p.checkEventNode(s, i, ev.Node, "bgp"); err != nil {
				return err
			}
			de.Node, de.Ev = msg.NodeID(ev.Node), bgp.Announce{Path: *ev.Path}
		case "rip-originate":
			if err := p.checkEventNode(s, i, ev.Node, "rip"); err != nil {
				return err
			}
			de.Node, de.Ev = msg.NodeID(ev.Node), rip.Originate{Prefix: ev.Prefix, Metric: ev.Metric}
		default:
			return fmt.Errorf("scenario %s: event %d: unknown kind %q", s.Name, i, ev.Kind)
		}
		p.Events = append(p.Events, de)
	}

	if h := p.Hier; h != nil {
		for i, np := range p.Nodes {
			if np.Role == topology.RoleStub {
				p.Events = append(p.Events, DriverEvent{
					At: stubOriginateAt, Node: msg.NodeID(i),
					Ev: rip.Originate{Prefix: fmt.Sprintf("n%d", i), Metric: 0},
				})
			}
		}
		if len(h.ASLinks) > 0 {
			for a, border := range h.Borders {
				p.Events = append(p.Events, DriverEvent{
					At: borderAnnounceAt, Node: msg.NodeID(border),
					Ev: bgp.Announce{Path: bgp.Path{
						Name: fmt.Sprintf("as%d-origin", a), Prefix: fmt.Sprintf("as%d", a),
					}},
				})
			}
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return nil
}

func (p *Plan) checkEventNode(s Spec, i, node int, proto string) error {
	if node < 0 || node >= len(p.Nodes) {
		return fmt.Errorf("scenario %s: event %d: node %d outside topology", s.Name, i, node)
	}
	for _, have := range p.Nodes[node].Protocols {
		if have == proto {
			return nil
		}
	}
	return fmt.Errorf("scenario %s: event %d: node %d does not run %s (bindings %v)",
		s.Name, i, node, proto, p.Nodes[node].Protocols)
}

// Apps builds one fresh application per node according to the node plans.
// Each call returns new daemons (a plan can boot several networks).
func (p *Plan) Apps() []api.Application {
	s := p.Run.spec
	apps := make([]api.Application, len(p.Nodes))
	for i, np := range p.Nodes {
		apps[i] = p.buildNode(s, np)
	}
	return apps
}

func (p *Plan) buildNode(s Spec, np NodePlan) api.Application {
	parts := make([]part, 0, len(np.Protocols))
	filters := make([]partFilter, 0, len(np.Protocols))
	for _, proto := range np.Protocols {
		switch proto {
		case "ospf":
			o := s.Protocols.OSPF
			parts = append(parts, ospf.New(ospf.Config{
				HelloInterval: o.HelloInterval.V(),
				DeadInterval:  o.DeadInterval.V(),
				DomainBase:    np.DomainBase,
			}))
			filters = append(filters, p.ospfFilter(np))
		case "bgp":
			mode := bgp.XORP04
			if s.Protocols.BGP.Mode == "fixed" {
				mode = bgp.Fixed
			}
			parts = append(parts, bgp.New(mode))
			filters = append(filters, p.bgpFilter(np))
		case "rip":
			rp := s.Protocols.RIP
			mode := rip.Quagga0965
			if rp.Mode == "fixed" {
				mode = rip.FixedMode
			}
			parts = append(parts, rip.New(rip.Config{
				Mode:           mode,
				UpdateInterval: rp.UpdateInterval.V(),
				Timeout:        rp.Timeout.V(),
				SplitHorizon:   *rp.SplitHorizon,
			}))
			filters = append(filters, p.ripFilter(np))
		}
	}
	if len(parts) == 1 && filters[0] == nil {
		return parts[0]
	}
	return newMultiApp(parts, filters)
}

// ospfFilter keeps same-AS, non-stub neighbors: the OSPF adjacency set of
// an intra-AS domain. Flat plans keep every neighbor, and so do interior
// routers (every interior adjacency is same-AS non-stub by construction),
// which lets both run the bare daemon and keep its journaled
// checkpointing.
func (p *Plan) ospfFilter(np NodePlan) partFilter {
	h := p.Hier
	if h == nil || np.Role == topology.RoleInterior {
		return nil
	}
	return func(nb api.Neighbor) bool {
		return h.AS[nb.ID] == np.AS && h.Role[nb.ID] != topology.RoleStub
	}
}

// bgpFilter keeps foreign-AS neighbors: the eBGP sessions of a border.
func (p *Plan) bgpFilter(np NodePlan) partFilter {
	h := p.Hier
	if h == nil {
		return nil
	}
	return func(nb api.Neighbor) bool { return h.AS[nb.ID] != np.AS }
}

// ripFilter keeps stub neighbors for the gateway (its RIP face points at
// the chain) and every neighbor for stub routers (the chain itself).
func (p *Plan) ripFilter(np NodePlan) partFilter {
	h := p.Hier
	if h == nil || np.Role == topology.RoleStub {
		return nil
	}
	return func(nb api.Neighbor) bool { return h.Role[nb.ID] == topology.RoleStub }
}

// Fingerprint folds the plan's full content — the canonical resolved spec,
// every link of the concrete topology, every node binding, every timeline
// entry and every fault event — into one FNV-64 value. Equal fingerprints
// mean byte-identical plans; committed spec files pin this value, so any
// drift in a generator, a default or the expansion itself is a visible
// test failure rather than a silent semantic change.
func (p *Plan) Fingerprint() uint64 {
	f := fnv.New64a()
	spec, err := p.Run.MarshalJSON()
	if err != nil {
		panic(fmt.Sprintf("scenario: resolved spec stopped marshaling: %v", err))
	}
	f.Write(spec)
	fmt.Fprintf(f, "\ngraph %s %d\n", p.Graph.Name, p.Graph.N)
	for _, l := range p.Graph.Links {
		fmt.Fprintf(f, "%d %d %d %d\n", l.A, l.B, int64(l.Delay), int64(l.Jitter))
	}
	for _, np := range p.Nodes {
		fmt.Fprintf(f, "node %d as%d %s %v base%d\n", np.ID, np.AS, np.Role, np.Protocols, np.DomainBase)
	}
	for _, ev := range p.Events {
		if ev.IsLink {
			fmt.Fprintf(f, "ev %d link %d %d %v\n", ev.At, ev.A, ev.B, ev.Up)
		} else {
			fmt.Fprintf(f, "ev %d node %d %s %+v\n", ev.At, ev.Node, ev.Ev.ExternalKind(), ev.Ev)
		}
	}
	if p.Faults != nil {
		for _, fe := range p.Faults.Events() {
			fmt.Fprintf(f, "fault %d %s %d %d %d\n", fe.At, fe.Kind, fe.Node, fe.A, fe.B)
		}
	}
	fmt.Fprintf(f, "horizon %d drain %v\n", p.RunUntil, p.Drain)
	return f.Sum64()
}
