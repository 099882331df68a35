// Command defined-bench regenerates the paper's evaluation figures
// (Figures 6a–6c, 7a–7c, 8a–8d) and runs committed scenario files.
//
// Usage:
//
//	defined-bench -scenario scenarios/hier10k.json [-dryrun]
//	defined-bench [-fig fig6a] [-preset quick|full] [-csv] [-seed N]
//
// -scenario resolves a scenario file (scenarios/*.json) and runs it: boots
// the described network (hierarchical mixed-protocol topologies included),
// runs the horizon and verifies coherence in every protocol domain.
// -dryrun stops after printing the expanded plan's summary and content
// fingerprint — the committed-scenario drift check.
//
// Without -scenario, the committed figure specs regenerate (every figure
// has one under internal/experiments/specs/: figure id, scale, and the
// engine it runs — sequential, eager, TF/FK, the cost point the goldens
// pin). The other flags are edits of those files before they resolve:
//
//	-fig      one figure instead of all ten
//	-preset   quick (reduced CI-scale workloads, as committed) or full
//	          (the paper's sample sizes, default)
//	-seed     the engine seed
//
// A figure spec is not a scenario file: -scenario rejects one, naming the
// field it does not know. Engine features are a scenario file's business;
// the fault-injection campaign is one (scenarios/chaos.json).
// Contradictory flags exit 2 naming both sides, never silently losing
// one: -dryrun needs -scenario, and a scenario file is not a figure and
// carries its own seed, so -fig, -preset, -seed and -csv are rejected
// beside it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"defined/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit code (2 for usage errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("defined-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "single figure id to regenerate (fig6a..fig8d); empty = all")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	seed := fs.Uint64("seed", 42, "experiment seed")
	scenarioFile := fs.String("scenario", "", "scenario file to run (see scenarios/)")
	dryrun := fs.Bool("dryrun", false, "with -scenario: print the plan summary and fingerprint, execute nothing")
	presetName := fs.String("preset", "full", "workload scale: quick or full")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *scenarioFile != "" {
		for _, name := range []string{"fig", "preset", "seed", "csv"} {
			if set[name] {
				fmt.Fprintf(stderr, "defined-bench: -%s with -scenario — a scenario file is not a figure and carries its own seed\n", name)
				return 2
			}
		}
		return runScenario(*scenarioFile, *dryrun, stdout, stderr)
	}
	if *dryrun {
		fmt.Fprintln(stderr, "defined-bench: -dryrun without -scenario — only a scenario file has a plan to print")
		return 2
	}

	quick := *presetName == "quick"
	if !quick && *presetName != "full" {
		fmt.Fprintf(stderr, "defined-bench: unknown preset %q (want quick or full)\n", *presetName)
		return 2
	}

	ids := experiments.SpecIDs()
	if *fig != "" {
		ids = []string{*fig}
	}
	for _, id := range ids {
		spec, err := experiments.LoadSpec(id, func(s *experiments.Spec) {
			s.Quick = &quick
			if set["seed"] {
				s.Engine.Seed = seed
			}
		})
		if err != nil {
			return fail(stderr, err)
		}
		start := time.Now()
		f, err := experiments.Run(spec)
		if err != nil {
			return fail(stderr, err)
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Fprintf(stdout, "%s(regenerated in %.1fs)\n\n", f.Table(), time.Since(start).Seconds())
		}
	}
	return 0
}

// fail reports err on stderr and returns the run-failed exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "defined-bench:", err)
	return 1
}
