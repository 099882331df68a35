// Hierarchical internet-scale topologies: a BRITE-style power-law AS-level
// graph whose vertices expand into router-level subgraphs, with
// mixed-protocol domains — OSPF areas inside each AS, BGP sessions between
// AS border routers, RIP stub chains hanging off gateway routers. This is
// the 10k–100k-router substrate ROADMAP item 2 calls for; the scenario
// layer binds protocols to the roles this generator assigns.

package topology

import (
	"fmt"

	"defined/internal/rng"
	"defined/internal/vtime"
)

// Role classifies a router within a hierarchical topology. Roles drive the
// scenario layer's protocol bindings: interiors and borders run OSPF inside
// their AS, borders additionally speak BGP to adjacent ASes, gateways
// additionally speak RIP toward their stub chain, and stubs are RIP-only.
type Role uint8

const (
	RoleInterior Role = iota
	RoleBorder
	RoleGateway
	RoleStub
)

// String renders the role for plans and debug dumps.
func (r Role) String() string {
	switch r {
	case RoleInterior:
		return "interior"
	case RoleBorder:
		return "border"
	case RoleGateway:
		return "gateway"
	case RoleStub:
		return "stub"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// HierConfig parameterizes the hierarchical generator. The zero value is
// invalid; use DefaultHier as a base. All fields must be explicit in
// scenario specs (the spec layer rejects implicit defaults).
type HierConfig struct {
	// ASes is the number of autonomous systems in the power-law AS-level
	// graph.
	ASes int
	// ASDegree is the preferential-attachment degree of the AS-level
	// graph (links each new AS adds).
	ASDegree int
	// MinRouters/MaxRouters bound the per-AS OSPF router count (drawn
	// uniformly, inclusive). MinRouters must be ≥ 2 so the border and the
	// stub gateway are distinct routers.
	MinRouters, MaxRouters int
	// RouterDegree is the preferential-attachment degree of each intra-AS
	// router graph.
	RouterDegree int
	// StubFrac is the probability an AS carries a RIP stub chain.
	StubFrac float64
	// StubLen is the number of RIP-only routers per stub chain.
	StubLen int
	// Seed drives every random draw; equal seeds produce byte-identical
	// topologies.
	Seed uint64
}

// DefaultHier returns a baseline configuration producing a few hundred
// routers; scale ASes / MaxRouters up for the 10k–100k-router runs.
func DefaultHier(seed uint64) HierConfig {
	return HierConfig{
		ASes: 12, ASDegree: 2,
		MinRouters: 8, MaxRouters: 32, RouterDegree: 2,
		StubFrac: 0.5, StubLen: 2,
		Seed: seed,
	}
}

func (c HierConfig) validate() error {
	switch {
	case c.ASes < 1:
		return fmt.Errorf("topology: hier: ASes must be >= 1, got %d", c.ASes)
	case c.ASDegree < 1:
		return fmt.Errorf("topology: hier: ASDegree must be >= 1, got %d", c.ASDegree)
	case c.MinRouters < 2:
		return fmt.Errorf("topology: hier: MinRouters must be >= 2 (border and gateway are distinct), got %d", c.MinRouters)
	case c.MaxRouters < c.MinRouters:
		return fmt.Errorf("topology: hier: MaxRouters %d < MinRouters %d", c.MaxRouters, c.MinRouters)
	case c.RouterDegree < 1:
		return fmt.Errorf("topology: hier: RouterDegree must be >= 1, got %d", c.RouterDegree)
	case c.StubFrac < 0 || c.StubFrac > 1:
		return fmt.Errorf("topology: hier: StubFrac must be in [0,1], got %g", c.StubFrac)
	case c.StubFrac > 0 && c.StubLen < 1:
		return fmt.Errorf("topology: hier: StubLen must be >= 1 when StubFrac > 0, got %d", c.StubLen)
	}
	return nil
}

// Hierarchy is a generated hierarchical topology plus its domain metadata:
// which AS each router belongs to, its protocol role, and per-AS id-block
// bounds. Node ids are assigned per-AS contiguously (AS a occupies
// [ASBase[a], ASBase[a]+ASSize[a])), which is what lets each OSPF daemon
// keep domain-local (AS-block-sized) state instead of topology-sized state.
type Hierarchy struct {
	*Graph
	Cfg HierConfig

	AS   []int  // node id → AS index
	Role []Role // node id → protocol role

	ASBase []int // AS → first node id of its contiguous block
	ASSize []int // AS → block size (OSPF routers + stub routers)

	Borders  []int // AS → border router id (one border per AS)
	Gateways []int // AS → stub gateway id, or -1 when the AS has no stub

	ASLinks [][2]int // AS-level edges (indices into the AS space)
}

// baEdges generates a Barabási–Albert preferential-attachment edge list
// over n local vertices with m links per new vertex, in deterministic
// creation order (the same repeated-node scheme as Brite).
func baEdges(n, m int, r *rng.Source) [][2]int {
	if n < 2 {
		return nil
	}
	var edges [][2]int
	have := make(map[[2]int]bool)
	var targets []int
	add := func(a, b int) {
		have[linkKey(a, b)] = true
		edges = append(edges, [2]int{a, b})
		targets = append(targets, a, b)
	}
	add(0, 1)
	for v := 2; v < n; v++ {
		picked := map[int]bool{}
		need := m
		if v < m {
			need = v
		}
		for len(picked) < need {
			var w int
			if r.Float64() < 0.1 || len(targets) == 0 {
				w = r.Intn(v)
			} else {
				w = targets[r.Intn(len(targets))]
			}
			if w == v || picked[w] || have[linkKey(v, w)] {
				found := false
				for cand := 0; cand < v; cand++ {
					if cand != v && !picked[cand] && !have[linkKey(v, cand)] {
						w, found = cand, true
						break
					}
				}
				if !found {
					break
				}
			}
			picked[w] = true
			add(v, w)
		}
	}
	return edges
}

// Hier generates a hierarchical mixed-protocol topology. The draw order is
// fixed (per-AS sizes, stub presence, AS-level edges, per-AS router
// graphs, inter-AS delays, stub chains), so a given config is byte-stable
// across runs and Go versions — the determinism tests pin a fingerprint.
//
// Delay bands keep the protocol domains metrically separated: intra-AS
// links are 100 µs–2 ms, inter-AS links 5–40 ms, stub links 200 µs–1 ms.
// With ASes of ≤ a few dozen routers, intra-AS shortest paths never
// benefit from detouring through a neighboring AS (two ≥ 5 ms border
// crossings always lose), which is what lets the mixed-protocol coherence
// check validate OSPF tables per-AS against a global shortest-path oracle.
func Hier(cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed).Derive("topology-hier")

	// 1. Per-AS router counts.
	routers := make([]int, cfg.ASes)
	for a := range routers {
		routers[a] = cfg.MinRouters + r.Intn(cfg.MaxRouters-cfg.MinRouters+1)
	}
	// 2. Stub presence.
	hasStub := make([]bool, cfg.ASes)
	for a := range hasStub {
		hasStub[a] = r.Float64() < cfg.StubFrac
	}
	// 3. AS-level power-law graph.
	asEdges := baEdges(cfg.ASes, cfg.ASDegree, r)

	h := &Hierarchy{
		Cfg:      cfg,
		ASBase:   make([]int, cfg.ASes),
		ASSize:   make([]int, cfg.ASes),
		Borders:  make([]int, cfg.ASes),
		Gateways: make([]int, cfg.ASes),
		ASLinks:  asEdges,
	}
	total := 0
	for a := 0; a < cfg.ASes; a++ {
		h.ASBase[a] = total
		h.ASSize[a] = routers[a]
		if hasStub[a] {
			h.ASSize[a] += cfg.StubLen
		}
		total += h.ASSize[a]
	}
	h.AS = make([]int, total)
	h.Role = make([]Role, total)

	linkBudget := len(asEdges)
	for a := 0; a < cfg.ASes; a++ {
		linkBudget += routers[a]*cfg.RouterDegree + cfg.StubLen
	}
	links := make([]Link, 0, linkBudget)

	// 4. Intra-AS router graphs. The border is the block's first router
	// (the BA root, which preferential attachment makes well-connected);
	// the stub gateway is the second.
	for a := 0; a < cfg.ASes; a++ {
		base := h.ASBase[a]
		h.Borders[a] = base
		h.Gateways[a] = -1
		if hasStub[a] {
			h.Gateways[a] = base + 1
		}
		for i := 0; i < h.ASSize[a]; i++ {
			h.AS[base+i] = a
			switch {
			case i == 0:
				h.Role[base+i] = RoleBorder
			case i >= routers[a]:
				h.Role[base+i] = RoleStub
			case hasStub[a] && i == 1:
				h.Role[base+i] = RoleGateway
			default:
				h.Role[base+i] = RoleInterior
			}
		}
		for _, e := range baEdges(routers[a], cfg.RouterDegree, r) {
			// Sub-millisecond metro/PoP links; 1 µs granularity keeps
			// flood-path delay estimates from tying (see Brite).
			d := 100*vtime.Microsecond + vtime.Duration(r.Intn(1_900))*vtime.Microsecond
			links = append(links, Link{
				A: base + e[0], B: base + e[1],
				Delay: d, Jitter: 100 * vtime.Microsecond,
			})
		}
	}

	// 5. Inter-AS links between border routers, wide-area delays.
	for _, e := range asEdges {
		d := 5*vtime.Millisecond + vtime.Duration(r.Intn(35_000))*vtime.Microsecond
		links = append(links, Link{
			A: h.Borders[e[0]], B: h.Borders[e[1]],
			Delay: d, Jitter: 100 * vtime.Microsecond,
		})
	}

	// 6. RIP stub chains off each gateway.
	for a := 0; a < cfg.ASes; a++ {
		if !hasStub[a] {
			continue
		}
		prev := h.Gateways[a]
		for i := 0; i < cfg.StubLen; i++ {
			stub := h.ASBase[a] + routers[a] + i
			d := 200*vtime.Microsecond + vtime.Duration(r.Intn(800))*vtime.Microsecond
			links = append(links, Link{A: prev, B: stub, Delay: d, Jitter: 50 * vtime.Microsecond})
			prev = stub
		}
	}

	g, err := New(fmt.Sprintf("hier-%d-as%d", total, cfg.ASes), total, links)
	if err != nil {
		return nil, fmt.Errorf("topology: hier: %w", err)
	}
	h.Graph = g

	// Preset the propagation bound: diameter ≤ 2·ecc(v) for any v, so one
	// Dijkstra from node 0 replaces the O(V·E·logV) all-pairs sweep the
	// engine would otherwise run at boot.
	var ecc vtime.Duration
	for _, d := range g.ShortestDelays(0) {
		if d > ecc {
			ecc = d
		}
	}
	g.SetPropagationBound(2 * ecc)
	return h, nil
}
