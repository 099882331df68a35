package experiments

import (
	"defined/internal/metrics"
	"defined/internal/scenario"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// Figure 8 is the scalability study (§5.3): BRITE topologies of 20–80
// nodes under synthetic link-event workloads, comparing random orderings
// (RO) against the delay-sensitive optimized ordering (OO) and the
// unmodified baseline.

// fig8Sizes are the BRITE network sizes the paper sweeps.
func fig8Sizes(w workload) []int {
	if w.quick {
		return []int{20, 40}
	}
	return []int{20, 40, 60, 80}
}

// fig8Events returns the number of link incidents per size point.
func fig8Events(w workload) int {
	if w.quick {
		return 6
	}
	return 25
}

// runFig8Point replays synthetic events on a BRITE graph under eng and
// returns (mean packets per node per event, mean convergence seconds).
func runFig8Point(g *topology.Graph, w workload, eng scenario.EngineSpec) (float64, float64, error) {
	evs := trace.Poisson(g, 0.5, vtime.Duration(fig8Events(w)*2)*vtime.Second, 300*vtime.Millisecond, w.seed())
	if len(evs) > 2*fig8Events(w) {
		evs = evs[:2*fig8Events(w)]
		// Keep the trace well-formed: trim a trailing unmatched down.
		if evs[len(evs)-1].Type == trace.LinkDown {
			evs = evs[:len(evs)-1]
		}
	}
	n, err := newNetwork(g, eng)
	if err != nil {
		return 0, 0, err
	}
	var packets, latency metrics.Dist
	for _, ev := range evs {
		counts, lat, err := n.perEvent(ev, 3*vtime.Second)
		if err != nil {
			continue
		}
		packets.AddAll(counts)
		latency.Add(lat.Seconds())
	}
	return packets.Mean(), latency.Mean(), nil
}

// fig8Order is the legend order of Figures 8a and 8b.
var fig8Order = []string{"DEFINED-RB(RO)", "DEFINED-RB(OO)", "XORP"}

// fig8Sweep runs the size sweep under the three engines of fig8Order and
// plots mean packets per node (or mean convergence seconds) into f.
func fig8Sweep(f *metrics.Figure, w workload, convergence bool) (*metrics.Figure, error) {
	engines := []scenario.EngineSpec{w.random(), w.eng, w.baseline()}
	for i, name := range fig8Order {
		s := f.AddSeries(name)
		for _, size := range fig8Sizes(w) {
			g := topology.Brite(size, 2, w.seed()+uint64(size))
			y, conv, err := runFig8Point(g, w, engines[i])
			if err != nil {
				return nil, err
			}
			if convergence {
				y = conv
			}
			s.Append(float64(size), y)
		}
	}
	return f, nil
}

// fig8a reproduces Figure 8a: mean control packets per node vs network
// size. Paper result: OO stays within ~2 packets of unmodified XORP at
// every size, while RO pays substantially more (rollback traffic).
func fig8a(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig8a",
		Title:  "Control overhead vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "packets/node",
	}
	return fig8Sweep(f, w, false)
}

// fig8b reproduces Figure 8b: mean convergence time vs network size.
// Paper result: OO tracks XORP closely; RO is visibly slower.
func fig8b(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig8b",
		Title:  "Convergence time vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "convergence time [s]",
	}
	return fig8Sweep(f, w, true)
}

// fig8c reproduces Figure 8c: DEFINED-LS mean step response time vs
// network size. Paper result: grows slowly, staying under 0.8 s at 80
// nodes.
func fig8c(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig8c",
		Title:  "DEFINED-LS response time vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "response time [s]",
	}
	s := f.AddSeries("DEFINED-LS")
	for _, size := range fig8Sizes(w) {
		g := topology.Brite(size, 2, w.seed()+uint64(size))
		evs := trace.Poisson(g, 0.5, 10*vtime.Second, 300*vtime.Millisecond, w.seed())
		resp, err := stepResponse(g, w, evs, 300*vtime.Millisecond)
		if err != nil {
			return nil, err
		}
		s.Append(float64(size), resp.Mean())
	}
	return f, nil
}

// fig8d reproduces Figure 8d: DEFINED-RB convergence time vs external
// event rate (2–10 events/s on Sprintlink). Paper result: grows slowly,
// reaching ~2 s at 10 events/s.
func fig8d(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig8d",
		Title:  "Convergence vs event rate (Sprintlink)",
		XLabel: "events per second",
		YLabel: "convergence time [s]",
	}
	s := f.AddSeries("DEFINED-RB")
	rates := []float64{2, 4, 6, 8, 10}
	window := 10 * vtime.Second
	if w.quick {
		rates = []float64{2, 6, 10}
		window = 4 * vtime.Second
	}
	g := topology.Sprintlink()
	for _, rate := range rates {
		evs := trace.Poisson(g, rate, window, 500*vtime.Millisecond, w.seed())
		n, err := newNetwork(g, w.eng)
		if err != nil {
			return nil, err
		}
		// Sustained load: inject the whole stream on schedule, then
		// measure how long the network needs to converge once the
		// stream ends.
		base := n.Now()
		for _, ev := range evs {
			n.Sim().ScheduleFn(base.Add(vtime.Duration(ev.At)), func() { _ = n.InjectLinkChange(ev.A, ev.B, ev.Type == trace.LinkUp) })
		}
		n.Run(base.Add(window))
		conv := n.convergeAfter(20*vtime.Millisecond, 10*vtime.Second)
		s.Append(rate, conv.Seconds())
	}
	return f, nil
}
