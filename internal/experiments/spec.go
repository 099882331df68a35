package experiments

// Committed figure scenarios. Every evaluation figure is pinned by a spec
// file under specs/ — the declarative form of the exact Options the golden
// tests run — so "regenerate figure N" is a data file, not a code path.
// OptionsFromSpec is the only bridge from the scenario carrier into
// Options; the golden tests prove the bridge reproduces the hand-coded
// figures bit-identically.

import (
	"embed"
	"fmt"
	"sort"
	"strings"

	"defined/internal/metrics"
	"defined/internal/scenario"
)

//go:embed specs/*.json
var specFS embed.FS

// knownFigures mirrors the ByID dispatch table (ByID executes the figure,
// so validation needs its own set).
var knownFigures = map[string]bool{
	"fig6a": true, "fig6b": true, "fig6c": true,
	"fig7a": true, "fig7b": true, "fig7c": true,
	"fig8a": true, "fig8b": true, "fig8c": true, "fig8d": true,
}

// SpecIDs lists the committed figure scenarios in lexical order.
func SpecIDs() []string {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(err) // embedded FS: cannot fail at runtime
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		ids = append(ids, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(ids)
	return ids
}

// LoadSpec resolves the committed scenario for one figure id.
func LoadSpec(id string) (scenario.RunSpec, error) {
	raw, err := specFS.ReadFile("specs/" + id + ".json")
	if err != nil {
		return scenario.RunSpec{}, fmt.Errorf("experiments: no committed spec %q", id)
	}
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		return scenario.RunSpec{}, fmt.Errorf("experiments: spec %s: %v", id, err)
	}
	return s.Resolve()
}

// OptionsFromSpec derives the figure workload Options from a resolved
// scenario. The scenario must carry a figure workload; the one engine
// field the figures honor is the seed (Resolve rejects a figure workload
// that asks for shards or lookahead — figures pin the reference cost
// point), everything else about a figure run — topologies, event counts,
// horizons — is defined by the figure itself (the spec's topology and
// horizon describe the scenario's own substrate, which figure workloads
// replace per measurement point).
func OptionsFromSpec(r scenario.RunSpec) (Options, error) {
	s := r.Spec()
	if s.Workload == nil {
		return Options{}, fmt.Errorf("experiments: scenario %s has no figure workload", s.Name)
	}
	if !knownFigures[s.Workload.Figure] {
		return Options{}, fmt.Errorf("experiments: scenario %s: unknown figure %q", s.Name, s.Workload.Figure)
	}
	return Options{Quick: *s.Workload.Quick, Seed: *s.Engine.Seed}, nil
}

// RunSpec executes a resolved figure scenario and returns its figure.
func RunSpec(r scenario.RunSpec) (*metrics.Figure, error) {
	opt, err := OptionsFromSpec(r)
	if err != nil {
		return nil, err
	}
	return ByID(r.Spec().Workload.Figure, opt)
}
