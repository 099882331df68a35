// Interactive-debug: a scripted DEFINED-LS troubleshooting session on a
// Sprintlink-scale OSPF network, demonstrating the debugger command set
// (step/round/group/continue, breakpoints, pending-queue and router-state
// inspection) the paper's §2.1 workflow describes. Pipe your own commands
// to cmd/defined-debug for a live session.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"defined"
	"defined/internal/routing/ospf"
)

func apps(n int) []defined.Application {
	out := make([]defined.Application, n)
	for i := range out {
		out[i] = ospf.New(ospf.Config{})
	}
	return out
}

func main() { run(os.Stdout) }

// run records the failure scenario, replays it under a scripted debugger
// session and prints everything to w.
func run(w io.Writer) {
	g := defined.Sprintlink()
	fmt.Fprintf(w, "recording a failure scenario on %s...\n\n", g)

	seed, yes := uint64(11), true
	net := mustNet(g, apps(g.N), defined.EngineSpec{Seed: &seed, Record: &yes})
	l := g.Links[7]
	net.At(defined.Seconds(0.40), func() { _ = net.InjectLinkChange(l.A, l.B, false) })
	net.At(defined.Seconds(1.20), func() { _ = net.InjectLinkChange(l.A, l.B, true) })
	net.Run(defined.Seconds(3))
	net.Drain()
	rec := net.Recording()
	st := net.Stats()
	fmt.Fprintf(w, "production: %d deliveries, %d rollbacks; recorded %d external events\n\n",
		st.Deliveries, st.Rollbacks, len(rec.Events))

	rp, err := defined.NewReplay(g, apps(g.N), rec)
	if err != nil {
		panic(err)
	}

	script := strings.Join([]string{
		"where",
		"step 5",
		"pending",
		"round",
		"group",
		fmt.Sprintf("break node %d", l.A),
		"continue",
		"clear",
		fmt.Sprintf("state %d", l.A),
		"continue",
		"where",
		fmt.Sprintf("log %d", l.A),
		"quit",
	}, "\n")
	fmt.Fprintln(w, "=== scripted debugger session ===")
	rp.Debug(strings.NewReader(script), w)

	fmt.Fprintln(w, "\n=== step-response summary (the paper's Figure 6c metric) ===")
	steps := rp.Steps()
	var worst float64
	total := 0
	for _, s := range steps {
		if s.ResponseTime.Seconds() > worst {
			worst = s.ResponseTime.Seconds()
		}
		total += s.Deliveries
	}
	fmt.Fprintf(w, "%d rounds, %d deliveries, worst step response %.3fs (paper: all under 1s)\n",
		len(steps), total, worst)
}

// mustNet builds a network, exiting on a configuration error.
func mustNet(g *defined.Topology, apps []defined.Application, eng defined.EngineSpec) *defined.Network {
	net, err := defined.NewNetwork(g, apps, eng)
	if err != nil {
		panic(err)
	}
	return net
}
