// Command bench is the repo's benchmark: six named workloads run through
// the Spec front door, seven end-to-end metrics per committed delivery and
// an outside-in ledger of per-layer metrics. See README.md.
//
//	bash bench/run.sh                      every workload, untraced then traced
//	bash bench/run.sh -agree               two untraced sets, compared against the bounds
//	bash bench/run.sh -workload sprint_flap -seed 7 -seconds 10 -trace 0
//
// With -workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics of the selected pass.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// traceFile is what the traced pass leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
	// Handlers aggregates the handler spans of the last traced rep, by
	// protocol and method; HandlersParent is the span they all hang under.
	Handlers       map[string]map[string]agg `json:"handlers"`
	HandlersParent int                       `json:"handlers_parent"`
}

func newTraceFile(workload string, seed uint64, tr *tracer, last *rep) *traceFile {
	f := &traceFile{Workload: workload, Seed: seed, Spans: tr.Spans, Handlers: map[string]map[string]agg{}, HandlersParent: last.runSpan}
	for proto, aggs := range last.totals.ByProto {
		f.Handlers[proto] = map[string]agg{}
		for m, a := range aggs {
			if a.Count > 0 {
				f.Handlers[proto][methodNames[m]] = a
			}
		}
	}
	return f
}

// benchDir finds the benchmark's own directory from the working directory:
// the repo root (the documented way to run) or the directory itself.
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "expect.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repo root or from bench/: expect.json not found")
}

func main() {
	// The box has two cores; pin it so the numbers do not depend on where
	// the harness happens to run.
	runtime.GOMAXPROCS(2)

	workloadName := flag.String("workload", "", "run one workload and print its result as the last line (default: all, each in a child process)")
	seed := flag.Uint64("seed", 42, "generator seed: which links flap and when")
	seconds := flag.Int("seconds", 10, "timed reps run for this many seconds (at least 3 reps)")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	agree := flag.Bool("agree", false, "run the untraced set twice and compare every metric against its bound")
	dump := flag.Bool("dump", false, "print the generated spec JSON and its plan fingerprint, run nothing")
	pinFlag := flag.Bool("pin", false, "re-record expect.json for the pinned seeds")
	glossary := flag.Bool("glossary", false, "print the metric glossary as markdown")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	flag.Parse()

	var err error
	switch {
	case *glossary:
		printGlossary()
	case *manifest:
		err = printManifest()
	case *dump:
		err = dumpSpecs(*workloadName, *seed)
	case *pinFlag:
		err = repin()
	case *agree:
		err = runAgree(*seed, *seconds)
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func selected(name string) ([]workload, error) {
	if name == "" {
		return workloads, nil
	}
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []workload{w}, nil
}

func dumpSpecs(name string, seed uint64) error {
	ws, err := selected(name)
	if err != nil {
		return err
	}
	for _, w := range ws {
		spec := w.build(seed)
		raw, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fp, err := planFingerprint(spec)
		if err != nil {
			return err
		}
		fmt.Printf("%s\nfingerprint %s %s\n", raw, w.name, hex(fp))
	}
	return nil
}

// repin records what every workload produces on the pinned seeds.
func repin() error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	exp := expectations{}
	for _, seed := range pinnedSeeds {
		row := map[string]pin{}
		for _, w := range workloads {
			o := &outcome{}
			spec := w.build(seed)
			got, ok := o.checkRep(w, spec)
			if !ok {
				return o.problems[0]
			}
			row[w.name] = got
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: committed %d order %s\n", w.name, seed, got.Committed, got.Order)
		}
		exp[fmt.Sprint(seed)] = row
	}
	raw, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "expect.json"), append(raw, '\n'), 0o644)
}

// runOne is the single-workload mode the driver and the parent modes use.
func runOne(name string, seed uint64, seconds int, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	exp, err := loadExpectations()
	if err != nil {
		return err
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d nproc=%d %s\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	budget := time.Duration(seconds) * time.Second
	var o *outcome
	defs := endToEnd
	if traced {
		o, defs = tracedPass(w, seed, budget), perLayer
	} else {
		o = untracedPass(w, seed, budget, exp)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := o.values[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		note := ""
		switch {
		case traced:
		case strings.HasPrefix(d.name, "step_") && w.replay:
			note = fmt.Sprintf("  (fastest of %d reps; of %d steps a rep; tail is p%g)", o.reps, o.steps, o.tailPct)
		case d.name == "setup_s":
			note = "  (fastest of a set-up loop of 5 to 50)"
		case d.name == "ns_per_committed":
			note = fmt.Sprintf("  (fastest of %d reps; quartiles %.6g, %.6g, %.6g)", o.reps, o.nsSpread[0], o.nsSpread[1], o.nsSpread[2])
		case strings.HasPrefix(d.name, "step_"):
			note = fmt.Sprintf("  (fastest of %d reps)", o.reps)
		default:
			note = fmt.Sprintf("  (median of %d reps)", o.reps)
		}
		fmt.Printf("%-16s %-38s %14.6g %-5s%s\n", name, d.name, v, d.unit, note)
	}
	fmt.Printf("%-16s ops_attempted %d ops_failed %d\n", name, o.attempted, o.failed)
	if !traced {
		exact, err := json.Marshal(o.exact)
		if err != nil {
			return err
		}
		fmt.Printf("exact %s\n", exact)
	}
	if o.trace != nil {
		if err := writeTrace(o.trace); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, o.failed, o.attempted)
	}
	return nil
}

func writeTrace(f *traceFile) error {
	dir, err := benchDir()
	if err != nil {
		return err
	}
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+f.Workload+".json"), raw, 0o644)
}

// childRun is one single-workload run in a process of its own, so heap
// size and GC pacing never depend on which workloads ran before.
type childRun struct {
	result
	exact string // the child's exact counts, verbatim
}

func runChild(workload string, seed uint64, seconds int, traced bool) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	t := 0
	if traced {
		t = 1
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var c childRun
	for _, l := range lines[:len(lines)-1] {
		if rest, ok := strings.CutPrefix(l, "exact "); ok {
			c.exact = rest
		} else {
			fmt.Println(l)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.result); err != nil {
		return c, fmt.Errorf("%s: no result line (%v): %w", workload, runErr, err)
	}
	return c, runErr
}

// runAll is the one command: every workload, untraced pass then traced
// pass, each in its own process. It goes on after a failure so one run
// reports every failure, and exits non-zero if there was any.
func runAll(seed uint64, seconds int) error {
	failed := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			c, err := runChild(w.name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			if err != nil || c.Failed > 0 {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d passes failed", failed, 2*len(workloads))
	}
	return nil
}

// boundFor is the bound -agree holds metric m to on workload w.
func boundFor(m metricDef, w workload) float64 {
	if m.name == "allocs_per_committed" && !w.sharded {
		return allocBoundSeq
	}
	return m.bound
}

// runAgree runs the untraced set twice and compares: every end-to-end
// metric must agree within its bound, every exact count bit for bit.
func runAgree(seed uint64, seconds int) error {
	var sets [2]map[string]childRun
	for i := range sets {
		sets[i] = map[string]childRun{}
		for _, w := range workloads {
			c, err := runChild(w.name, seed, seconds, false)
			if err != nil {
				return err
			}
			sets[i][w.name] = c
		}
	}
	bad := 0
	fmt.Printf("\n%-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			diff, bound := math.Abs(vb-va)/va, boundFor(m, w)
			verdict := ""
			if diff > bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, m.name, va, vb, 100*diff, 100*bound, verdict)
		}
		if a.exact != b.exact {
			fmt.Printf("%-16s exact counts differ:\n  %s\n  %s\n", w.name, a.exact, b.exact)
			bad++
		} else {
			fmt.Printf("%-16s exact counts, stats and fingerprints identical\n", w.name)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons disagree", bad)
	}
	return nil
}

func printGlossary() {
	fmt.Println("| end-to-end metric | unit | better | bound | what |")
	fmt.Println("|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Printf("| `%s` | %s | %s | %.0f %% | %s |\n", m.name, m.unit, m.better(), 100*m.bound, m.what)
	}
	fmt.Println()
	fmt.Println("| per-layer metric | unit | better | what | should move | on |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Printf("| `%s` | %s | %s | %s | %s | %s |\n", m.name, m.unit, m.better(), m.what, m.moves, m.on)
	}
}

// printManifest prints BENCHMARK.json from the same tables the harness
// emits from.
func printManifest() error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricEntry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricEntry   `json:"end_to_end"`
		PerLayer   []metricEntry   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, metricEntry{d.name, d.unit, d.better(), &d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metricEntry{d.name, d.unit, d.better(), nil})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", raw)
	return nil
}
