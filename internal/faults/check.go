package faults

// The invariant checker: the pass a fault campaign runs after its plan has
// executed (and the network has had time to re-converge) to prove the run
// degraded gracefully instead of silently corrupting state.

import (
	"errors"
	"fmt"
	"strings"

	"defined/internal/msg"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// defaultMaxWindow bounds the per-node history-window high-water mark when
// CheckConfig.MaxWindow is zero. Healthy windows on the evaluation
// topologies peak in the tens of entries; a wedged lookahead hold or a
// settle bound that stopped retiring shows up as growth far past that
// long before memory notices.
const defaultMaxWindow = 4096

// RouteReader reports node src's routing cost to dst (ok=false: no
// route). The OSPF experiments satisfy it with RoutingTable(); other
// protocols plug in their own view.
type RouteReader func(src, dst msg.NodeID) (cost int64, ok bool)

// CheckConfig tunes Check.
type CheckConfig struct {
	// MaxWindow bounds the window high-water mark (0 = 4096).
	MaxWindow int
	// Routes, when non-nil, enables the post-heal route-coherence pass:
	// every live node's cost to every reachable destination is compared
	// against Dijkstra ground truth over the engine's current link state.
	Routes RouteReader
	// Pairs, when non-nil, restricts the route-coherence pass to the
	// src/dst pairs it admits. Mixed-protocol scenarios use it to scope
	// the global-Dijkstra oracle to domains where it is the ground truth
	// (e.g. OSPF pairs inside one AS); large scenarios use it to sample.
	// Sources with no admitted pair skip their Dijkstra entirely.
	Pairs func(src, dst msg.NodeID) bool
}

// Report is Check's result: the measured invariants plus one Problems
// line per violation (empty = healthy).
type Report struct {
	SettleViolations uint64
	PoolViolations   uint64
	PoolLive         int
	HeldMessages     int
	WindowHighWater  int
	CrashedNodes     []msg.NodeID // still-quarantined nodes (skipped by route checks)
	RouteMismatches  int

	Problems []string
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Problems) == 0 }

// Err returns nil for a healthy report, or one error joining every
// violation line.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	return errors.New("faults: invariants violated:\n  " + strings.Join(r.Problems, "\n  "))
}

// Check runs the invariant pass over a (typically quiescent) engine:
//
//   - SettleViolations == 0: no straggler ever arrived after its window
//     slot retired — determinism's safety criterion survived the faults.
//   - Zero pool lifecycle violations, and (pooled, quiescent runs) no
//     leaked references: every live pooled message is accounted for by an
//     engine structure (window, pending buffer, sent record). A crash
//     path that dropped a Release without freeing, or freed without
//     releasing, breaks the equality from one side or the other.
//   - Window high-water bound: speculation stayed prunable throughout —
//     no hold, promise or settle stall wedged a window into unbounded
//     growth.
//   - Optional route coherence (CheckConfig.Routes): after the plan's
//     heals, every live node's routing costs match shortest paths over
//     the current topology. Crashed (unrestarted) nodes are skipped as
//     sources and expected unreachable as destinations.
func Check(e *rollback.Engine, g *topology.Graph, cfg CheckConfig) *Report {
	r := &Report{}
	st := e.Stats()
	r.SettleViolations = st.SettleViolations
	if r.SettleViolations != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("SettleViolations = %d (want 0)", r.SettleViolations))
	}
	r.PoolViolations = e.Sim().PoolViolations()
	if r.PoolViolations != 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("pool lifecycle violations = %d (want 0)", r.PoolViolations))
	}
	r.PoolLive = e.PoolLive()
	r.HeldMessages = e.HeldMessages()
	if e.Pooled() && e.Sim().InFlight() == 0 && r.PoolLive != r.HeldMessages {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"pool leak: %d live pooled messages but only %d referenced by engine structures", r.PoolLive, r.HeldMessages))
	}
	maxWin := cfg.MaxWindow
	if maxWin <= 0 {
		maxWin = defaultMaxWindow
	}
	r.WindowHighWater = e.WindowHighWater()
	if r.WindowHighWater > maxWin {
		r.Problems = append(r.Problems, fmt.Sprintf("window high-water %d exceeds bound %d (wedged speculation?)", r.WindowHighWater, maxWin))
	}
	for i := 0; i < g.N; i++ {
		if e.Crashed(msg.NodeID(i)) {
			r.CrashedNodes = append(r.CrashedNodes, msg.NodeID(i))
		}
	}
	if cfg.Routes != nil {
		problems := routeMismatches(e, g, cfg.Routes, cfg.Pairs, 0)
		r.RouteMismatches = len(problems)
		r.Problems = append(r.Problems, problems...)
	}
	return r
}

// RoutesCoherent reports whether every live node's routing view matches
// shortest paths over the engine's current link and node state: Check's
// route-coherence pass as a predicate that stops at the first mismatch,
// cheap enough to poll (the figure harness measures convergence time
// with it).
func RoutesCoherent(e *rollback.Engine, g *topology.Graph, routes RouteReader) bool {
	return len(routeMismatches(e, g, routes, nil, 1)) == 0
}

// routeMismatches compares every admitted live node's routing view
// against Dijkstra over the engine's current link and node state and
// returns one line per disagreement, at most limit of them (0 = all).
// Crashed (unrestarted) nodes are skipped as sources and expected
// unreachable as destinations.
func routeMismatches(e *rollback.Engine, g *topology.Graph, routes RouteReader, pairs func(src, dst msg.NodeID) bool, limit int) []string {
	var problems []string
	crashed := make([]bool, g.N)
	for i := range crashed {
		crashed[i] = e.Crashed(msg.NodeID(i))
	}
	for src := 0; src < g.N; src++ {
		if crashed[src] {
			continue
		}
		if pairs != nil && !anyPair(pairs, src, g.N) {
			continue
		}
		want := expectedCosts(e, g, src, crashed)
		for dst := 0; dst < g.N; dst++ {
			if dst == src {
				continue
			}
			if pairs != nil && !pairs(msg.NodeID(src), msg.NodeID(dst)) {
				continue
			}
			cost, have := routes(msg.NodeID(src), msg.NodeID(dst))
			reachable := want[dst] >= 0
			switch {
			case reachable != have:
				problems = append(problems, fmt.Sprintf(
					"route %d->%d: reachable=%v but daemon has-route=%v", src, dst, reachable, have))
			case have && cost != want[dst]:
				problems = append(problems, fmt.Sprintf(
					"route %d->%d: cost %d, shortest path %d", src, dst, cost, want[dst]))
			default:
				continue
			}
			if len(problems) == limit {
				return problems
			}
		}
	}
	return problems
}

// anyPair reports whether src has at least one admitted destination.
func anyPair(pairs func(src, dst msg.NodeID) bool, src, n int) bool {
	for dst := 0; dst < n; dst++ {
		if dst != src && pairs(msg.NodeID(src), msg.NodeID(dst)) {
			return true
		}
	}
	return false
}

// expectedCosts is Dijkstra ground truth from src over the links the
// engine currently has up, excluding crashed nodes (a quarantined node
// forwards nothing). Unreachable destinations are -1. It shares no code
// with the daemons' SPF, which it judges.
func expectedCosts(e *rollback.Engine, g *topology.Graph, src int, crashed []bool) []int64 {
	return topology.ShortestPaths(g, src,
		func(l topology.Link) int64 { return int64(api.LinkCost(l.Delay)) },
		func(u, v int) bool { return !crashed[v] && e.Sim().LinkState(u, v) })
}

// ConvergenceSlack is the post-heal settling margin campaigns should run
// past Plan.Horizon before calling Check: two beacon-propagation sweeps
// (failure detection, re-flood, SPF) plus a hello/dead-interval cycle for
// adjacency resurrection.
func ConvergenceSlack(g *topology.Graph) vtime.Duration {
	return 2*rollback.StaticSettle(g) + 4*vtime.Second
}
