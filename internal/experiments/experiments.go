// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each FigNx function regenerates one sub-figure as a
// metrics.Figure whose series mirror the paper's legends ("XORP",
// "DEFINED-RB", "DEFINED-RB(OO)", ...); cmd/defined-bench prints them and
// bench_test.go wraps them as benchmarks.
//
// Absolute numbers come from a simulator rather than the authors' Emulab
// testbed, so EXPERIMENTS.md compares *shapes*: who wins, by what rough
// factor, and where crossovers fall.
package experiments

import (
	"fmt"

	"defined/internal/metrics"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// Options tunes experiment scale.
type Options struct {
	// Quick reduces event counts so benches and CI finish fast; the full
	// runs reproduce the paper's sample sizes.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

// traceEvents returns how many trace events an experiment replays.
func (o Options) traceEvents() int {
	if o.Quick {
		return 40
	}
	return 651
}

// ospfApps builds one OSPF daemon per node.
func ospfApps(n int, cfg ospf.Config) []api.Application {
	apps := make([]api.Application, n)
	for i := range apps {
		apps[i] = ospf.New(cfg)
	}
	return apps
}

// ospfDefault is the stressed configuration of §5.1 (1 s hellos, no flood
// holddown).
func ospfDefault() ospf.Config { return ospf.Config{} }

// network pairs an engine with its apps for convergence checking.
type network struct {
	e    *rollback.Engine
	apps []api.Application
	g    *topology.Graph
	down map[int]bool // link index → down
}

// newNetwork boots an OSPF network (engine plus initial LSDB flood) and
// runs it to initial convergence.
//
// Figure reproductions pin the checkpoint strategy their shapes were
// calibrated against (the seed tree's TF/FK cost point) unless a caller
// explicitly selects one: the network-level figures study ordering
// functions and trace workloads, and pinning keeps their metric series
// comparable across engine-default changes (the engine default is now the
// paper-recommended TM/MI with real undo-journal checkpointing, whose
// cheaper rollback repair shifts speculation dynamics).
//
// Arrival deferral (the engine's rollback-avoidance default since PR 3)
// is pinned off the same way: deferral trades a small virtual-time hold
// for fewer rollbacks, which would shift the convergence-time series the
// figures report. Committed orders are identical either way; only the
// timing dynamics the figures measure would move. A figure scenario that
// asks for shards or lookahead is rejected at resolve time for the same
// reason.
func newNetwork(g *topology.Graph, cfg rollback.Config) *network {
	cfg.StrategySet = true
	if cfg.DeferSlack == 0 {
		cfg.DeferSlack = -1 // pre-deferral dynamics
	}
	apps := ospfApps(g.N, ospf.Config{})
	e := rollback.New(g, apps, cfg)
	n := &network{e: e, apps: apps, g: g, down: map[int]bool{}}
	// Boot: run past the first beacon group so every daemon floods its
	// LSA, then drain.
	e.Run(vtime.Time(vtime.Second))
	e.RunQuiescent(10_000_000)
	return n
}

func (n *network) daemon(i int) *ospf.Daemon { return n.apps[i].(*ospf.Daemon) }

// apply injects a trace event.
func (n *network) apply(ev trace.Event) error {
	idx := n.g.LinkIndex(ev.A, ev.B)
	n.down[idx] = ev.Type == trace.LinkDown
	return n.e.InjectTrace(ev)
}

// expectedCosts computes ground-truth shortest-path costs over the
// currently-up links (same metric the daemons use).
func (n *network) expectedCosts(src int) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, n.g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	visited := make([]bool, n.g.N)
	for {
		u, best := -1, inf
		for i, d := range dist {
			if !visited[i] && d < best {
				u, best = i, d
			}
		}
		if u == -1 {
			break
		}
		visited[u] = true
		for _, v := range n.g.Neighbors(u) {
			idx := n.g.LinkIndex(u, v)
			if n.down[idx] {
				continue
			}
			l, _ := n.g.LinkBetween(u, v)
			if nd := dist[u] + int64(api.LinkCost(l.Delay)); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	return dist
}

// converged reports whether every daemon's routing table matches ground
// truth (reachability and cost for every destination).
func (n *network) converged() bool {
	for src := 0; src < n.g.N; src++ {
		want := n.expectedCosts(src)
		table := n.daemon(src).RoutingTable()
		for dst := 0; dst < n.g.N; dst++ {
			if dst == src {
				continue
			}
			r, have := table[msg.NodeID(dst)]
			reachable := want[dst] < int64(1)<<62
			if reachable != have {
				return false
			}
			if have && int64(r.Cost) != want[dst] {
				return false
			}
		}
	}
	return true
}

// convergeAfter runs the network until converged, in steps of check, and
// returns the elapsed virtual time (capped at limit).
func (n *network) convergeAfter(check, limit vtime.Duration) vtime.Duration {
	start := n.e.Now()
	for elapsed := vtime.Duration(0); elapsed < limit; elapsed += check {
		n.e.Run(start.Add(elapsed + check))
		if n.converged() {
			return n.e.Now().Sub(start)
		}
	}
	return limit
}

// settleBetweenEvents runs the network forward to absorb residual traffic
// between trace events.
func (n *network) settle(d vtime.Duration) {
	n.e.Run(n.e.Now().Add(d))
}

// perEventStats captures per-node packet counts for one event window.
func (n *network) perEvent(ev trace.Event, window vtime.Duration) ([]float64, vtime.Duration, error) {
	n.e.Sim().ResetStats()
	if err := n.apply(ev); err != nil {
		return nil, 0, err
	}
	latency := n.convergeAfter(10*vtime.Millisecond, window)
	n.settle(100 * vtime.Millisecond)
	counts := make([]float64, n.g.N)
	for i := 0; i < n.g.N; i++ {
		counts[i] = float64(n.e.Sim().Stats(msg.NodeID(i)).Received)
	}
	return counts, latency, nil
}

// All regenerates every figure.
func All(opt Options) []*metrics.Figure {
	return []*metrics.Figure{
		Fig6a(opt), Fig6b(opt), Fig6c(opt),
		Fig7a(opt), Fig7b(opt), Fig7c(opt),
		Fig8a(opt), Fig8b(opt), Fig8c(opt), Fig8d(opt),
	}
}

// ByID resolves a figure generator by its id ("fig6a"...).
func ByID(id string, opt Options) (*metrics.Figure, error) {
	switch id {
	case "fig6a":
		return Fig6a(opt), nil
	case "fig6b":
		return Fig6b(opt), nil
	case "fig6c":
		return Fig6c(opt), nil
	case "fig7a":
		return Fig7a(opt), nil
	case "fig7b":
		return Fig7b(opt), nil
	case "fig7c":
		return Fig7c(opt), nil
	case "fig8a":
		return Fig8a(opt), nil
	case "fig8b":
		return Fig8b(opt), nil
	case "fig8c":
		return Fig8c(opt), nil
	case "fig8d":
		return Fig8d(opt), nil
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q", id)
	}
}

// cdfSeries appends dist's CDF to a named series.
func cdfSeries(f *metrics.Figure, name string, d *metrics.Dist, points int) {
	s := f.AddSeries(name)
	for _, p := range d.CDF(points) {
		s.Append(p.X, p.Y)
	}
}

// sprintTrace builds the compressed Tier-1-like workload on g.
func sprintTrace(g *topology.Graph, opt Options, window vtime.Duration) []trace.Event {
	evs := trace.Synthesize(g, trace.Config{Seed: opt.Seed, Events: opt.traceEvents()})
	return trace.Compress(evs, window)
}

func rbOrder(name string, seed uint64) ordering.Func {
	f, err := ordering.ByName(name, seed)
	if err != nil {
		panic(err)
	}
	return f
}
