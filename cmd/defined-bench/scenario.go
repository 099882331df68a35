package main

// The scenario runner: defined-bench -scenario <file> resolves a scenario
// file, prints its dry-run identity (plan summary + fingerprint), and —
// unless -dryrun — boots the network it describes, runs the horizon, and
// proves the run reached coherence.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"defined"
	"defined/internal/faults"
	"defined/internal/scenario"
	"defined/internal/topology"
)

// coherenceSampleASes bounds the number of ASes whose intra-AS OSPF
// routes are cost-checked against the Dijkstra oracle on hierarchical
// plans: the oracle runs one whole-graph Dijkstra per checked source,
// which at 10k routers is still large for every source of every AS. Flat
// scenarios are checked in full.
const coherenceSampleASes = 4

func runScenario(path string, dryrun bool, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fail(stderr, err)
	}
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		return fail(stderr, err)
	}
	r, err := s.Resolve()
	if err != nil {
		return fail(stderr, err)
	}
	p, err := r.Expand()
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "scenario %s: %d routers, %d links, %d driver events, fingerprint %#x\n",
		r.Name(), p.Graph.N, len(p.Graph.Links), len(p.Events), p.Fingerprint())
	if dryrun {
		return 0
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	net := defined.NewNetworkFromPlan(p)
	bootWall := time.Since(start)
	runtime.ReadMemStats(&after)
	fmt.Fprintf(stdout, "boot: %.2fs wall, %.1f MB allocated\n",
		bootWall.Seconds(), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

	start = time.Now()
	quiesced := net.RunPlan(p)
	fmt.Fprintf(stdout, "run: %.2fs wall for %v virtual, quiesced=%v\n",
		time.Since(start).Seconds(), p.RunUntil, quiesced)
	fmt.Fprintf(stdout, "stats: %+v\n", net.Stats())
	if p.Drain && !quiesced {
		fmt.Fprintln(stderr, "defined-bench: scenario failed to quiesce")
		return 1
	}
	if !checkCoherence(net, p, stderr) {
		return 1
	}
	fmt.Fprintln(stdout, "coherence: ok")
	return 0
}

// checkCoherence proves the quiesced scenario converged in every protocol
// domain. Engine invariants (settle violations, pool leaks, window
// bounds) always run; route checks adapt to the plan's shape.
func checkCoherence(net *defined.Network, p *defined.Plan, stderr io.Writer) bool {
	cfg := faults.CheckConfig{}
	h := p.Hier
	ospfRoutes := func(src, dst defined.NodeID) (int64, bool) {
		d := scenario.OSPF(net.App(src))
		if d == nil {
			return 0, false
		}
		route, ok := d.RoutingTable()[dst]
		return int64(route.Cost), ok
	}
	if h == nil {
		// Flat plan: if it runs OSPF everywhere, check all pairs.
		if scenario.OSPF(net.App(0)) != nil {
			cfg.Routes = ospfRoutes
		}
	} else {
		// Hierarchical plan: cost-check intra-AS OSPF pairs for a sample
		// of ASes (one whole-graph Dijkstra per checked source).
		cfg.Routes = ospfRoutes
		cfg.Pairs = func(src, dst defined.NodeID) bool {
			return h.AS[src] == h.AS[dst] && h.AS[src] < coherenceSampleASes &&
				h.Role[src] != topology.RoleStub && h.Role[dst] != topology.RoleStub
		}
	}
	if *p.Engine.PerLinkLoss > 0 {
		// OSPF floods without retransmit, so a loss draw on a heal-time LSA
		// can legitimately strand a stale route: a lossy plan checks the
		// engine invariants only.
		cfg.Routes = nil
	}
	if rep := net.CheckFaults(cfg); rep.Err() != nil {
		fmt.Fprintln(stderr, "defined-bench: coherence:", rep.Err())
		return false
	}
	if h == nil {
		return true
	}

	// Structural convergence over the whole hierarchy: every border
	// selected every other AS's prefix, every gateway learned its stubs'
	// host prefixes, every non-stub router reaches its whole AS.
	ok := true
	for a, border := range h.Borders {
		d := scenario.BGP(net.App(defined.NodeID(border)))
		for other := range h.Borders {
			if other == a || d == nil {
				continue
			}
			if _, have := d.Best(fmt.Sprintf("as%d", other)); !have {
				fmt.Fprintf(stderr, "defined-bench: coherence: AS %d border %d has no best path for as%d\n",
					a, border, other)
				ok = false
			}
		}
	}
	for a, gw := range h.Gateways {
		if gw < 0 {
			continue
		}
		d := scenario.RIP(net.App(defined.NodeID(gw)))
		for id := h.ASBase[a]; id < h.ASBase[a]+h.ASSize[a]; id++ {
			if h.Role[id] != topology.RoleStub || d == nil {
				continue
			}
			if _, _, have := d.Route(fmt.Sprintf("n%d", id)); !have {
				fmt.Fprintf(stderr, "defined-bench: coherence: AS %d gateway %d missing stub prefix n%d\n",
					a, gw, id)
				ok = false
			}
		}
	}
	for id := 0; id < p.Graph.N; id++ {
		if h.Role[id] == topology.RoleStub {
			continue
		}
		d := scenario.OSPF(net.App(defined.NodeID(id)))
		a := h.AS[id]
		for dst := h.ASBase[a]; dst < h.ASBase[a]+h.ASSize[a]; dst++ {
			if dst == id || h.Role[dst] == topology.RoleStub {
				continue
			}
			if d == nil || !d.Reachable(defined.NodeID(dst)) {
				fmt.Fprintf(stderr, "defined-bench: coherence: router %d cannot reach same-AS router %d\n",
					id, dst)
				ok = false
			}
		}
	}
	return ok
}
