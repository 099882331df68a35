// Command defined-bench regenerates the paper's evaluation figures
// (Figures 6a–6c, 7a–7c, 8a–8d) and runs committed scenario files.
//
// Usage:
//
//	defined-bench -scenario scenarios/hier10k.json [-dryrun] [-csv]
//	defined-bench [-fig fig6a] [-preset quick|full] [-csv] [-seed N]
//
// -scenario resolves a committed spec file and runs it: figure-workload
// scenarios regenerate their figure, plain scenarios boot the described
// network (hierarchical mixed-protocol topologies included), run the
// horizon and verify coherence in every protocol domain. -dryrun stops
// after printing the expanded plan's summary and content fingerprint —
// the committed-spec drift check CI runs.
//
// Without -scenario, the committed figure scenarios regenerate (every
// figure has one under internal/experiments/specs/, stating the engine it
// runs: sequential, eager, TF/FK — the cost point the goldens pin). The
// other flags are edits of those files before they resolve:
//
//	-fig      one figure instead of all ten
//	-preset   quick (reduced CI-scale workloads, as committed) or full
//	          (the paper's sample sizes, default)
//	-seed     the engine seed
//
// Engine features are a scenario file's business; the fault-injection
// campaign is one (scenarios/chaos.json). Contradictory flags exit 2
// naming both sides, never silently losing one: -dryrun needs -scenario,
// and a scenario file carries its own figure, scale and seed, so -fig,
// -preset and -seed are rejected beside it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"defined/internal/experiments"
	"defined/internal/scenario"
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
	scenarioFile := fs.String("scenario", "", "committed scenario file to run (see scenarios/ and internal/experiments/specs/)")
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
		for _, name := range []string{"fig", "preset", "seed"} {
			if set[name] {
				fmt.Fprintf(stderr, "defined-bench: -%s with -scenario — the scenario file carries its own figure, scale and seed\n", name)
				return 2
			}
		}
		return runScenario(*scenarioFile, *dryrun, *csv, stdout, stderr)
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
		r, err := experiments.LoadSpec(id, func(s *scenario.Spec) {
			s.Workload.Quick = &quick
			if set["seed"] {
				s.Engine.Seed = seed
			}
		})
		if err != nil {
			return fail(stderr, err)
		}
		if code := printFigure(r, *csv, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// fail reports err on stderr and returns the run-failed exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "defined-bench:", err)
	return 1
}

// printFigure regenerates the evaluation figure a resolved figure
// scenario describes and prints it as a table (with its wall time) or as
// CSV.
func printFigure(r scenario.RunSpec, csv bool, stdout, stderr io.Writer) int {
	start := time.Now()
	f, err := experiments.Run(r)
	if err != nil {
		return fail(stderr, err)
	}
	if csv {
		fmt.Fprintf(stdout, "# %s — %s\n%s\n", f.ID, f.Title, f.CSV())
	} else {
		fmt.Fprintf(stdout, "%s(regenerated in %.1fs)\n\n", f.Table(), time.Since(start).Seconds())
	}
	return 0
}
