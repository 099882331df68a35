package experiments

import (
	"defined/internal/lockstep"
	"defined/internal/metrics"
	"defined/internal/rollback"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// fig6Window is the compressed replay horizon of the two-week Tier-1
// trace: long enough that events stay separated, short enough to simulate
// quickly.
func fig6Window(opt Options) vtime.Duration {
	if opt.Quick {
		return 30 * vtime.Second
	}
	return 5 * vtime.Minute
}

// runFig6Trace replays the Tier-1-like trace on Sprintlink under cfg,
// collecting per-(node, event) received-packet counts and per-event
// convergence latencies.
func runFig6Trace(opt Options, cfg rollback.Config) (*metrics.Dist, *metrics.Dist) {
	g := topology.Sprintlink()
	evs := sprintTrace(g, opt, fig6Window(opt))
	n := newNetwork(g, cfg)
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
	return &packets, &latency
}

// Fig6a reproduces Figure 6a: the CDF of control packets received per node
// per trace event, unmodified XORP vs DEFINED-RB. The paper's result: the
// curves nearly coincide, with DEFINED-RB showing a small tail (<1 % of
// nodes) from rollback control traffic.
func Fig6a(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig6a",
		Title:  "Control overhead of DEFINED-RB (Sprintlink, Tier-1 trace)",
		XLabel: "packets/node",
		YLabel: "CDF",
	}
	xp, _ := runFig6Trace(opt, rollback.Config{Seed: opt.Seed, Baseline: true})
	rb, _ := runFig6Trace(opt, rollback.Config{Seed: opt.Seed})
	cdfSeries(f, "XORP", xp, 40)
	cdfSeries(f, "DEFINED-RB", rb, 40)
	return f
}

// Fig6b reproduces Figure 6b: the CDF of network convergence time per
// failure event, with XORP's 1-second flood holddown removed to expose
// DEFINED's overheads. Expected shape: close curves, DEFINED-RB slightly
// longer-tailed.
func Fig6b(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig6b",
		Title:  "Delay of DEFINED-RB (Sprintlink, Tier-1 trace, no holddown)",
		XLabel: "convergence time [s]",
		YLabel: "CDF",
	}
	_, xp := runFig6Trace(opt, rollback.Config{Seed: opt.Seed, Baseline: true})
	_, rb := runFig6Trace(opt, rollback.Config{Seed: opt.Seed})
	cdfSeries(f, "XORP", xp, 40)
	cdfSeries(f, "DEFINED-RB", rb, 40)
	return f
}

// Fig6c reproduces Figure 6c: the CDF of DEFINED-LS's per-step response
// time when replaying the recorded Sprintlink run. Paper result: every
// step completes in under a second.
func Fig6c(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig6c",
		Title:  "Response time of DEFINED-LS (Sprintlink)",
		XLabel: "response time [s]",
		YLabel: "CDF",
	}
	g := topology.Sprintlink()
	evs := sprintTrace(g, opt, fig6Window(opt))
	n := newNetwork(g, rollback.Config{Seed: opt.Seed, Record: true})
	for _, ev := range evs {
		if err := n.apply(ev); err != nil {
			continue
		}
		n.settle(500 * vtime.Millisecond)
	}
	n.e.RunQuiescent(10_000_000)
	rec := n.e.Recording()

	ls, err := lockstep.New(g, ospfApps(g.N, ospfDefault()), rec, lockstep.Config{})
	if err != nil {
		panic(err)
	}
	ls.RunToEnd()
	var resp metrics.Dist
	for _, st := range ls.Steps() {
		resp.Add(st.ResponseTime.Seconds())
	}
	cdfSeries(f, "DEFINED-LS", &resp, 40)
	return f
}
