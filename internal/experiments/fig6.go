package experiments

import (
	"defined/internal/metrics"
	"defined/internal/scenario"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// fig6Window is the compressed replay horizon of the two-week Tier-1
// trace: long enough that events stay separated, short enough to simulate
// quickly.
func fig6Window(w workload) vtime.Duration {
	if w.quick {
		return 30 * vtime.Second
	}
	return 5 * vtime.Minute
}

// runFig6Trace replays the Tier-1-like trace on Sprintlink under eng,
// collecting per-(node, event) received-packet counts and per-event
// convergence latencies.
func runFig6Trace(w workload, eng scenario.EngineSpec) (*metrics.Dist, *metrics.Dist, error) {
	g := topology.Sprintlink()
	evs := sprintTrace(g, w, fig6Window(w))
	n, err := newNetwork(g, eng)
	if err != nil {
		return nil, nil, err
	}
	var packets, latency metrics.Dist
	for _, ev := range evs {
		counts, lat, err := n.perEvent(ev, 3*vtime.Second)
		if err != nil {
			continue
		}
		packets.AddAll(counts)
		if ev.Type == trace.LinkDown || ev.Type == trace.LinkUp {
			latency.Add(lat.Seconds())
		}
	}
	return &packets, &latency, nil
}

// fig6CDFs runs the trace under the baseline and under the spec's engine
// and plots both runs' packet-count (or convergence-latency) CDFs into f.
func fig6CDFs(f *metrics.Figure, w workload, latency bool) (*metrics.Figure, error) {
	for _, s := range []struct {
		name string
		eng  scenario.EngineSpec
	}{{"XORP", w.baseline()}, {"DEFINED-RB", w.eng}} {
		d, lat, err := runFig6Trace(w, s.eng)
		if err != nil {
			return nil, err
		}
		if latency {
			d = lat
		}
		cdfSeries(f, s.name, d, 40)
	}
	return f, nil
}

// fig6a reproduces Figure 6a: the CDF of control packets received per node
// per trace event, unmodified XORP vs DEFINED-RB. The paper's result: the
// curves nearly coincide, with DEFINED-RB showing a small tail (<1 % of
// nodes) from rollback control traffic.
func fig6a(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig6a",
		Title:  "Control overhead of DEFINED-RB (Sprintlink, Tier-1 trace)",
		XLabel: "packets/node",
		YLabel: "CDF",
	}
	return fig6CDFs(f, w, false)
}

// fig6b reproduces Figure 6b: the CDF of network convergence time per
// failure event, with XORP's 1-second flood holddown removed to expose
// DEFINED's overheads. Expected shape: close curves, DEFINED-RB slightly
// longer-tailed.
func fig6b(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig6b",
		Title:  "Delay of DEFINED-RB (Sprintlink, Tier-1 trace, no holddown)",
		XLabel: "convergence time [s]",
		YLabel: "CDF",
	}
	return fig6CDFs(f, w, true)
}

// fig6c reproduces Figure 6c: the CDF of DEFINED-LS's per-step response
// time when replaying the recorded Sprintlink run. Paper result: every
// step completes in under a second.
func fig6c(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig6c",
		Title:  "Response time of DEFINED-LS (Sprintlink)",
		XLabel: "response time [s]",
		YLabel: "CDF",
	}
	g := topology.Sprintlink()
	resp, err := stepResponse(g, w, sprintTrace(g, w, fig6Window(w)), 500*vtime.Millisecond)
	if err != nil {
		return nil, err
	}
	cdfSeries(f, "DEFINED-LS", resp, 40)
	return f, nil
}
