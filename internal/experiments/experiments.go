// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). A figure is a committed Spec file under specs/ —
// figure id, scale, engine block; LoadSpec resolves it (the engine through
// scenario.ResolveEngine) and Run regenerates it as a metrics.Figure whose
// series mirror the paper's legends ("XORP", "DEFINED-RB",
// "DEFINED-RB(OO)", ...); cmd/defined-bench prints them and bench_test.go
// wraps them as benchmarks.
//
// The spec's engine block is the engine the figure runs — every network a
// figure boots is built from it, or from a one-field edit of it for the
// other series (see workload) — so the fingerprint that pins a spec pins
// what actually executed.
//
// Absolute numbers come from a simulator rather than the authors' Emulab
// testbed, so the tests compare *shapes*: who wins, by what rough factor,
// and where crossovers fall.
package experiments

import (
	"fmt"

	"defined/internal/faults"
	"defined/internal/lockstep"
	"defined/internal/metrics"
	"defined/internal/msg"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/scenario"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// figures is every evaluation figure, in the paper's order.
var figures = []struct {
	id  string
	run func(workload) (*metrics.Figure, error)
}{
	{"fig6a", fig6a}, {"fig6b", fig6b}, {"fig6c", fig6c},
	{"fig7a", fig7a}, {"fig7b", fig7b}, {"fig7c", fig7c},
	{"fig8a", fig8a}, {"fig8b", fig8b}, {"fig8c", fig8c}, {"fig8d", fig8d},
}

// figureByID returns the function that regenerates figure id, or nil.
func figureByID(id string) func(workload) (*metrics.Figure, error) {
	for _, fig := range figures {
		if fig.id == id {
			return fig.run
		}
	}
	return nil
}

// Run regenerates the figure s describes, on the engine s states.
func Run(s Spec) (*metrics.Figure, error) {
	s, err := s.resolve()
	if err != nil {
		return nil, err
	}
	f, err := figureByID(s.Figure)(workload{eng: s.Engine, quick: *s.Quick})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", s.Figure, err)
	}
	return f, nil
}

// workload is what a figure reads off its resolved spec: the engine block
// (the DEFINED-RB series runs it as written) and the scale. The other
// series are edits of that block.
type workload struct {
	eng scenario.EngineSpec
	// quick reduces event counts so benches and CI finish fast; the full
	// runs reproduce the paper's sample sizes.
	quick bool
}

func ptr[T any](v T) *T { return &v }

// seed drives all of a figure's randomness.
func (w workload) seed() uint64 { return *w.eng.Seed }

// baseline is the unmodified-"XORP" series: the same engine, substrate off.
func (w workload) baseline() scenario.EngineSpec {
	e := w.eng
	e.Baseline = ptr(true)
	return e
}

// random is the DEFINED-RB(RO) series: random ordering on its own stream.
func (w workload) random() scenario.EngineSpec {
	e := w.eng
	e.Ordering, e.OrderingSeed = "RO", ptr(w.seed()+1)
	return e
}

// recording is the production run a DEFINED-LS series replays.
func (w workload) recording() scenario.EngineSpec {
	e := w.eng
	e.Record = ptr(true)
	return e
}

// ospfApps builds one OSPF daemon per node in the stressed configuration
// of §5.1 (1 s hellos, no flood holddown).
func ospfApps(n int) []api.Application {
	apps := make([]api.Application, n)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	return apps
}

// network is an engine running OSPF on every node, plus the harness's
// measurement helpers.
type network struct{ *rollback.Engine }

// newNetwork boots an OSPF network on the engine eng describes — resolved
// and built exactly as defined.NewNetwork does it — and runs it to initial
// convergence.
//
// The committed figure specs state the reference engine (strategy TF/FK,
// deferral off: the cost point the figure shapes were calibrated
// against), so the metric series stay comparable across engine-default
// changes. Committed orders are identical under any engine; only the
// timing dynamics the figures measure would move. A figure spec that asks
// for shards or lookahead is rejected at resolve time for the same reason.
func newNetwork(g *topology.Graph, eng scenario.EngineSpec) (*network, error) {
	resolved, err := scenario.ResolveEngine(eng)
	if err != nil {
		return nil, err
	}
	n := &network{rollback.New(g, ospfApps(g.N), resolved)}
	// Boot: run past the first beacon group so every daemon floods its
	// LSA, then drain.
	n.Run(vtime.Time(vtime.Second))
	n.RunQuiescent(10_000_000)
	return n, nil
}

// converged reports whether every daemon's routing table matches ground
// truth over the currently-up links (reachability and cost for every
// destination). The walk is source-major, so one table copy per source
// serves all its destinations.
func (n *network) converged() bool {
	var table map[msg.NodeID]ospf.Route
	cur := msg.None
	return faults.RoutesCoherent(n.Engine, n.Sim().G, func(src, dst msg.NodeID) (int64, bool) {
		if src != cur {
			table, cur = n.App(src).(*ospf.Daemon).RoutingTable(), src
		}
		r, ok := table[dst]
		return int64(r.Cost), ok
	})
}

// convergeAfter runs the network until converged, in steps of check, and
// returns the elapsed virtual time (capped at limit).
func (n *network) convergeAfter(check, limit vtime.Duration) vtime.Duration {
	start := n.Now()
	for elapsed := vtime.Duration(0); elapsed < limit; elapsed += check {
		n.Run(start.Add(elapsed + check))
		if n.converged() {
			return n.Now().Sub(start)
		}
	}
	return limit
}

// settle runs the network forward to absorb residual traffic between
// trace events.
func (n *network) settle(d vtime.Duration) {
	n.Run(n.Now().Add(d))
}

// perEvent injects one trace event and captures per-node packet counts
// and the convergence latency for its window.
func (n *network) perEvent(ev trace.Event, window vtime.Duration) ([]float64, vtime.Duration, error) {
	n.Sim().ResetStats()
	if err := n.InjectLinkChange(ev.A, ev.B, ev.Type == trace.LinkUp); err != nil {
		return nil, 0, err
	}
	latency := n.convergeAfter(10*vtime.Millisecond, window)
	n.settle(100 * vtime.Millisecond)
	counts := make([]float64, n.Sim().G.N)
	for i := range counts {
		counts[i] = float64(n.Sim().Stats(msg.NodeID(i)).Received)
	}
	return counts, latency, nil
}

// stepResponse records a production run of evs on g (gap of virtual time
// between events), replays the recording under DEFINED-LS and returns the
// per-step response times in seconds.
func stepResponse(g *topology.Graph, w workload, evs []trace.Event, gap vtime.Duration) (*metrics.Dist, error) {
	n, err := newNetwork(g, w.recording())
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		if err := n.InjectLinkChange(ev.A, ev.B, ev.Type == trace.LinkUp); err != nil {
			continue
		}
		n.settle(gap)
	}
	n.RunQuiescent(10_000_000)
	ls, err := lockstep.New(g, ospfApps(g.N), n.Recording())
	if err != nil {
		return nil, err
	}
	ls.RunToEnd()
	var resp metrics.Dist
	for _, st := range ls.Steps() {
		resp.Add(st.ResponseTime.Seconds())
	}
	return &resp, nil
}

// cdfSeries appends dist's CDF to a named series.
func cdfSeries(f *metrics.Figure, name string, d *metrics.Dist, points int) {
	s := f.AddSeries(name)
	for _, p := range d.CDF(points) {
		s.Append(p.X, p.Y)
	}
}

// sprintTrace builds the compressed Tier-1-like workload on g.
func sprintTrace(g *topology.Graph, w workload, window vtime.Duration) []trace.Event {
	events := 651
	if w.quick {
		events = 40
	}
	evs := trace.Synthesize(g, trace.Config{Seed: w.seed(), Events: events})
	return trace.Compress(evs, window)
}
