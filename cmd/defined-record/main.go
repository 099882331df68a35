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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"defined"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the summary to stdout
// and diagnostics to stderr, and returns the exit code (2 for usage
// errors, 1 when no complete recording was written).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("defined-record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoName := fs.String("topology", "sprintlink", "topology: sprintlink, ebone, level3")
	events := fs.Int("events", 20, "number of trace events to replay")
	seed := fs.Uint64("seed", 7, "workload and jitter seed")
	window := fs.Float64("window", 30, "virtual seconds to compress the trace into")
	out := fs.String("o", "recording.json", "output file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "defined-record:", err)
		return 1
	}

	g, err := topology.ByName(*topoName)
	if err != nil {
		return fail(err)
	}
	apps := make([]defined.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	record := true
	net, err := defined.NewNetwork(g, apps, defined.EngineSpec{Seed: seed, Record: &record})
	if err != nil {
		return fail(err)
	}

	evs := trace.Synthesize(g, trace.Config{Seed: *seed, Events: *events})
	evs = trace.Compress(evs, vtime.Duration(*window*float64(vtime.Second)))
	for _, ev := range evs {
		net.At(defined.Time(ev.At), func() {
			if err := net.InjectLinkChange(ev.A, ev.B, ev.Type == trace.LinkUp); err != nil {
				fmt.Fprintf(stderr, "defined-record: inject: %v\n", err)
			}
		})
	}
	net.Run(defined.Seconds(*window + 1))
	if !net.Drain() {
		return fail(errors.New("network did not quiesce"))
	}

	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	rec := net.Recording()
	err = rec.Encode(f)
	// A failed Close (a full disk flushing late) is a truncated recording
	// just as a failed Encode is.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	st := net.Stats()
	fmt.Fprintf(stdout, "recorded %d external events over %d groups on %s (%d deliveries, %d rollbacks, %d anti-messages)\n",
		len(rec.Events), rec.Groups, g.Name, st.Deliveries, st.Rollbacks, st.AntiMessages)
	fmt.Fprintf(stdout, "wrote %s — replay with: defined-debug -topology %s -recording %s\n",
		*out, *topoName, *out)
	return 0
}
