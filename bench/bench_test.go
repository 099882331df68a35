package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/scenario"
	"defined/internal/vtime"
)

// smallSprint is sprint_flap cut down to its first two flaps: the same
// generator, engine and checks in a few tens of milliseconds.
func smallSprint(eng scenario.EngineSpec) scenario.Spec {
	spec := sprintFlap("small", 42, eng)
	spec.Events = spec.Events[:4]
	spec.Horizon.Run = scenario.Duration(5 * vtime.Second)
	return spec
}

var flatWorkload = workload{name: "small", flat: true}

// Tracing must change no simulated statistic, on the journaled engine or
// on the clone engine, with or without the op recorder.
func TestTracingChangesNothing(t *testing.T) {
	for _, eng := range []struct {
		name string
		spec scenario.EngineSpec
	}{{"default", defaultEngine(0)}, {"reference", referenceEngine()}} {
		t.Run(eng.name, func(t *testing.T) {
			spec := smallSprint(eng.spec)
			plain, err := runRep(flatWorkload, spec, repOpts{deliveryLog: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.stats.Rollbacks == 0 {
				t.Fatal("the small spec rolled nothing back: it no longer exercises restore")
			}
			log := &opLog{}
			for _, o := range []repOpts{
				{deliveryLog: true, trace: newTracer()},
				{deliveryLog: true, trace: newTracer(), rec: log},
			} {
				traced, err := runRep(flatWorkload, spec, o)
				if err != nil {
					t.Fatal(err)
				}
				if traced.stats != plain.stats {
					t.Errorf("stats differ:\ntraced   %+v\nuntraced %+v", traced.stats, plain.stats)
				}
				if traced.order != plain.order || traced.tables != plain.tables || traced.committed != plain.committed {
					t.Errorf("traced committed %d order %x tables %x, untraced %d %x %x",
						traced.committed, traced.order, traced.tables, plain.committed, plain.order, plain.tables)
				}
				calls, _ := traced.totals.sum(method.isHandler)
				if calls < plain.stats.Deliveries {
					t.Errorf("decorator saw %d handler calls for %d deliveries", calls, plain.stats.Deliveries)
				}
			}

			// The recorded stream drives fresh daemons without diverging,
			// through rewinds (default) and clone restores (reference).
			plan, err := expandSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if ns, err := replayDaemons(plan, log); err != nil || ns <= 0 {
				t.Errorf("isolated daemon replay: %v ns per call, err %v", ns, err)
			}
			if len(log.messages) == 0 {
				t.Error("recording rep recorded no handler calls")
			}
		})
	}
}

// The engine picks its checkpoint mode by probing for api.Journaled, and
// counts cache hits by probing for api.RecomputeCached: the decorator must
// answer each probe exactly as the application under it would.
func TestDecoratorForwardsCapabilities(t *testing.T) {
	d := ospf.New(ospf.Config{})
	type bare struct{ api.Application }
	type journaledOnly struct {
		api.Application
		api.Journaled
	}
	type cachedOnly struct {
		api.Application
		api.RecomputeCached
	}
	for _, c := range []struct {
		name             string
		app              api.Application
		journaled, cache bool
	}{
		{"neither", bare{d}, false, false},
		{"journaled", journaledOnly{d, d}, true, false},
		{"cached", cachedOnly{d, d}, false, true},
		{"both", d, true, true},
	} {
		wrapped, _ := wrapApp(c.app, 0, []string{"ospf"}, nil)
		if _, ok := wrapped.(api.Journaled); ok != c.journaled {
			t.Errorf("%s: decorator Journaled = %v, inner %v", c.name, ok, c.journaled)
		}
		if _, ok := wrapped.(api.RecomputeCached); ok != c.cache {
			t.Errorf("%s: decorator RecomputeCached = %v, inner %v", c.name, ok, c.cache)
		}
		if unwrapApp(wrapped) != c.app {
			t.Errorf("%s: unwrapApp did not return the inner application", c.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10*time.Second, 3*time.Second, 2*time.Second); got != 5*time.Second {
		t.Errorf("selfTime = %v, want 5s", got)
	}
	// Counted-but-untimed calls are charged at the timed mean.
	a := agg{Count: 32, Timed: 2, SumNs: 10}
	if got := a.total(); got != 160 {
		t.Errorf("sampled total = %v, want 160ns", got)
	}
	var mt methodTotals
	mt.All[mMessage] = agg{Count: 2, Timed: 2, SumNs: 700}
	mt.All[mTimer] = agg{Count: 1, Timed: 1, SumNs: 300}
	mt.All[mRewind] = agg{Count: 1, Timed: 1, SumNs: 50}
	if n, d := mt.sum(method.isHandler); n != 3 || d != 1000 {
		t.Errorf("handler sum = %d calls %v, want 3 calls 1µs", n, d)
	}
	if n, d := mt.sum(method.isCheckpoint); n != 1 || d != 50 {
		t.Errorf("checkpoint sum = %d calls %v, want 1 call 50ns", n, d)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{3, 99, 50},      // too few samples for any tail
		{19, 99, 50},     // 9 beyond the median: still no rung
		{20, 99, 50},     // 10 beyond the median
		{100, 99, 90},    // 10 beyond p90, 1 beyond p99
		{999, 99, 90},    // 9 beyond p99
		{1000, 99, 99},   // 10 beyond p99
		{100000, 99, 99}, // the limit caps the rung
		{100000, 99.9, 99.9},
		{9999, 99.9, 99},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(sorted, 99); got != 10 {
		t.Errorf("p99 = %g, want 10", got)
	}
}

// A departure from a pinned output is a failed operation, before any timing.
func TestPinnedOutputsGate(t *testing.T) {
	w, _ := workloadByName("sprint_flap")
	exp, err := loadExpectations()
	if err != nil {
		t.Fatal(err)
	}
	good, ok := exp.lookup(w.name, 42)
	if !ok {
		t.Fatal("expect.json does not pin sprint_flap seed 42")
	}
	bad := good
	bad.Order = hex(1)
	if d := good.diff(bad); len(d) != 1 {
		t.Errorf("diff of a corrupted order fingerprint = %v, want one line", d)
	}
	o := untracedPass(w, 42, 0, expectations{"42": {w.name: bad}})
	if o.failed != 1 || o.reps != 0 {
		t.Errorf("corrupted pin: %d failed, %d timed reps; want 1 failed and no timing", o.failed, o.reps)
	}
}

// Every name the harness emits is well-formed and is the name
// BENCHMARK.json declares, with the same unit, direction and bound.
func TestNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !name.MatchString(w.name) || m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: harness %q, BENCHMARK.json %q", i, w.name, m.Workloads[i].Name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, defs []metricDef, got []entry) {
		if len(defs) != len(got) {
			t.Fatalf("%s: harness has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			want := entry{d.name, d.unit, d.better(), d.bound}
			if !name.MatchString(d.name) || got[i] != want {
				t.Errorf("%s %d: harness %+v, BENCHMARK.json %+v", kind, i, want, got[i])
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd)
	check("per_layer", perLayer, m.PerLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
}
