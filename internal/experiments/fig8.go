package experiments

import (
	"defined/internal/lockstep"
	"defined/internal/metrics"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/rollback"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// Figure 8 is the scalability study (§5.3): BRITE topologies of 20–80
// nodes under synthetic link-event workloads, comparing random orderings
// (RO) against the delay-sensitive optimized ordering (OO) and the
// unmodified baseline.

// fig8Sizes are the BRITE network sizes the paper sweeps.
func fig8Sizes(opt Options) []int {
	if opt.Quick {
		return []int{20, 40}
	}
	return []int{20, 40, 60, 80}
}

// fig8Events returns the number of link incidents per size point.
func fig8Events(opt Options) int {
	if opt.Quick {
		return 6
	}
	return 25
}

// runFig8Point replays synthetic events on a BRITE graph under cfg and
// returns (mean packets per node per event, mean convergence seconds).
func runFig8Point(g *topology.Graph, opt Options, cfg rollback.Config) (float64, float64) {
	evs := trace.Poisson(g, 0.5, vtime.Duration(fig8Events(opt)*2)*vtime.Second, 300*vtime.Millisecond, opt.Seed)
	if len(evs) > 2*fig8Events(opt) {
		evs = evs[:2*fig8Events(opt)]
		// Keep the trace well-formed: trim a trailing unmatched down.
		if evs[len(evs)-1].Type == trace.LinkDown {
			evs = evs[:len(evs)-1]
		}
	}
	n := newNetwork(g, cfg)
	var packets, latency metrics.Dist
	for _, ev := range evs {
		counts, lat, err := n.perEvent(ev, 3*vtime.Second)
		if err != nil {
			continue
		}
		packets.AddAll(counts)
		latency.Add(lat.Seconds())
	}
	return packets.Mean(), latency.Mean()
}

// fig8Series runs the size sweep for one configuration.
func fig8Series(opt Options, mkCfg func() rollback.Config) (pkts, conv []metrics.Point) {
	for _, size := range fig8Sizes(opt) {
		g := topology.Brite(size, 2, opt.Seed+uint64(size))
		p, c := runFig8Point(g, opt, mkCfg())
		pkts = append(pkts, metrics.Point{X: float64(size), Y: p})
		conv = append(conv, metrics.Point{X: float64(size), Y: c})
	}
	return
}

// fig8Data computes the three series shared by Figures 8a and 8b.
func fig8Data(opt Options) (map[string][]metrics.Point, map[string][]metrics.Point) {
	pkts := map[string][]metrics.Point{}
	conv := map[string][]metrics.Point{}
	pkts["DEFINED-RB(RO)"], conv["DEFINED-RB(RO)"] = fig8Series(opt, func() rollback.Config {
		return rollback.Config{Seed: opt.Seed, Ordering: ordering.Random(opt.Seed + 1)}
	})
	pkts["DEFINED-RB(OO)"], conv["DEFINED-RB(OO)"] = fig8Series(opt, func() rollback.Config {
		return rollback.Config{Seed: opt.Seed}
	})
	pkts["XORP"], conv["XORP"] = fig8Series(opt, func() rollback.Config {
		return rollback.Config{Seed: opt.Seed, Baseline: true}
	})
	return pkts, conv
}

var fig8Order = []string{"DEFINED-RB(RO)", "DEFINED-RB(OO)", "XORP"}

// Fig8a reproduces Figure 8a: mean control packets per node vs network
// size. Paper result: OO stays within ~2 packets of unmodified XORP at
// every size, while RO pays substantially more (rollback traffic).
func Fig8a(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig8a",
		Title:  "Control overhead vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "packets/node",
	}
	pkts, _ := fig8Data(opt)
	for _, name := range fig8Order {
		s := f.AddSeries(name)
		s.Points = pkts[name]
	}
	return f
}

// Fig8b reproduces Figure 8b: mean convergence time vs network size.
// Paper result: OO tracks XORP closely; RO is visibly slower.
func Fig8b(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig8b",
		Title:  "Convergence time vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "convergence time [s]",
	}
	_, conv := fig8Data(opt)
	for _, name := range fig8Order {
		s := f.AddSeries(name)
		s.Points = conv[name]
	}
	return f
}

// Fig8c reproduces Figure 8c: DEFINED-LS mean step response time vs
// network size. Paper result: grows slowly, staying under 0.8 s at 80
// nodes.
func Fig8c(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig8c",
		Title:  "DEFINED-LS response time vs network size (BRITE)",
		XLabel: "number of nodes",
		YLabel: "response time [s]",
	}
	s := f.AddSeries("DEFINED-LS")
	for _, size := range fig8Sizes(opt) {
		g := topology.Brite(size, 2, opt.Seed+uint64(size))
		evs := trace.Poisson(g, 0.5, 10*vtime.Second, 300*vtime.Millisecond, opt.Seed)
		n := newNetwork(g, rollback.Config{Seed: opt.Seed, Record: true})
		for _, ev := range evs {
			if err := n.apply(ev); err != nil {
				continue
			}
			n.settle(300 * vtime.Millisecond)
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
		s.Append(float64(size), resp.Mean())
	}
	return f
}

// Fig8d reproduces Figure 8d: DEFINED-RB convergence time vs external
// event rate (2–10 events/s on Sprintlink). Paper result: grows slowly,
// reaching ~2 s at 10 events/s.
func Fig8d(opt Options) *metrics.Figure {
	f := &metrics.Figure{
		ID:     "fig8d",
		Title:  "Convergence vs event rate (Sprintlink)",
		XLabel: "events per second",
		YLabel: "convergence time [s]",
	}
	s := f.AddSeries("DEFINED-RB")
	rates := []float64{2, 4, 6, 8, 10}
	if opt.Quick {
		rates = []float64{2, 6, 10}
	}
	g := topology.Sprintlink()
	window := 10 * vtime.Second
	if opt.Quick {
		window = 4 * vtime.Second
	}
	for _, rate := range rates {
		evs := trace.Poisson(g, rate, window, 500*vtime.Millisecond, opt.Seed)
		n := newNetwork(g, rollback.Config{Seed: opt.Seed})
		// Sustained load: inject the whole stream on schedule, then
		// measure how long the network needs to converge once the
		// stream ends — plus per-event latency sampled mid-stream.
		base := n.e.Now()
		for _, ev := range evs {
			ev := ev
			at := base.Add(vtime.Duration(ev.At))
			n.e.Sim().ScheduleFn(at, func() {
				idx := n.g.LinkIndex(ev.A, ev.B)
				n.down[idx] = ev.Type == trace.LinkDown
				_ = n.e.InjectTrace(ev)
			})
		}
		n.e.Run(base.Add(window))
		conv := n.convergeAfter(20*vtime.Millisecond, 10*vtime.Second)
		s.Append(rate, conv.Seconds())
		_ = msg.None
	}
	return f
}
