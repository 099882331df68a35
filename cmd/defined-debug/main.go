// Command defined-debug opens an interactive DEFINED-LS debugging session
// on a recording produced by defined-record: the debugging network replays
// the production execution deterministically while the operator steps,
// sets breakpoints and inspects router state.
//
// Usage:
//
//	defined-debug -recording recording.json [-topology sprintlink]
//
// Commands inside the session: step, round, group, continue, break,
// pending, state, where, log, quit (see 'help').
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"defined"
	"defined/internal/record"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, reads debugger commands from
// stdin, writes the session to stdout and diagnostics to stderr, and
// returns the exit code (2 for usage errors, 1 when the recording cannot
// be replayed on the named topology — nothing is printed to stdout then).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("defined-debug", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoName := fs.String("topology", "sprintlink", "topology the recording was made on")
	recPath := fs.String("recording", "recording.json", "recording file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "defined-debug:", err)
		return 1
	}

	g, err := topology.ByName(*topoName)
	if err != nil {
		return fail(err)
	}
	f, err := os.Open(*recPath)
	if err != nil {
		return fail(err)
	}
	rec, err := record.Decode(f)
	f.Close()
	if err != nil {
		return fail(err)
	}
	if rec.Topology != g.Name {
		return fail(fmt.Errorf("recording was made on %q, not %q", rec.Topology, g.Name))
	}
	apps := make([]defined.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	rp, err := defined.NewReplay(g, apps, rec)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "loaded %s: %d recorded events, %d groups\n", *recPath, len(rec.Events), rec.Groups)
	rp.Debug(stdin, stdout)
	return 0
}
