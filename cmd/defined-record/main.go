// Command defined-record runs an OSPF production network under DEFINED-RB
// against a synthesized Tier-1-style failure trace and writes the partial
// recording to a file for later replay with defined-debug.
//
// Usage:
//
//	defined-record [-topology sprintlink] [-events 20] [-seed 7] \
//	               [-window 30] [-o recording.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"defined"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

func main() {
	topoName := flag.String("topology", "sprintlink", "topology: sprintlink, ebone, level3")
	events := flag.Int("events", 20, "number of trace events to replay")
	seed := flag.Uint64("seed", 7, "workload and jitter seed")
	window := flag.Float64("window", 30, "virtual seconds to compress the trace into")
	out := flag.String("o", "recording.json", "output file")
	flag.Parse()

	g, err := topology.ByName(*topoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "defined-record: %v\n", err)
		os.Exit(1)
	}
	apps := make([]defined.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	record := true
	net, err := defined.NewNetwork(g, apps, defined.EngineSpec{Seed: seed, Record: &record})
	if err != nil {
		fmt.Fprintln(os.Stderr, "defined-record:", err)
		os.Exit(1)
	}

	evs := trace.Synthesize(g, trace.Config{Seed: *seed, Events: *events})
	evs = trace.Compress(evs, vtime.Duration(*window*float64(vtime.Second)))
	for _, ev := range evs {
		ev := ev
		net.At(defined.Time(ev.At), func() {
			if err := net.InjectTrace(ev); err != nil {
				fmt.Fprintf(os.Stderr, "defined-record: inject: %v\n", err)
			}
		})
	}
	net.Run(defined.Seconds(*window + 1))
	if !net.Drain() {
		fmt.Fprintln(os.Stderr, "defined-record: network did not quiesce")
		os.Exit(1)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "defined-record: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	rec := net.Recording()
	if err := rec.Encode(f); err != nil {
		fmt.Fprintf(os.Stderr, "defined-record: %v\n", err)
		os.Exit(1)
	}
	st := net.Stats()
	fmt.Printf("recorded %d external events over %d groups on %s (%d deliveries, %d rollbacks, %d anti-messages)\n",
		len(rec.Events), rec.Groups, g.Name, st.Deliveries, st.Rollbacks, st.AntiMessages)
	fmt.Printf("wrote %s — replay with: defined-debug -topology %s -recording %s\n",
		*out, *topoName, *out)
}
