package experiments

// Committed figure specs. Every evaluation figure is a file under specs/
// saying the three things a figure reads — which figure, at which scale,
// on which engine — pinned, as resolved, by specs/fingerprints.txt.
// "Regenerate figure N" is a data file, and a variation of it (another
// seed, the full scale) is an edit of that file, not a second code path.

import (
	"embed"
	"fmt"

	"defined/internal/scenario"
)

//go:embed specs/*.json
var specFS embed.FS

// Spec describes one figure run. The topologies, event counts and
// horizons of a figure's measurement points are the figure's own, so a
// spec has no field for them.
type Spec struct {
	// Figure is the experiment id ("fig6a".."fig8d").
	Figure string `json:"figure"`
	// Quick selects the reduced CI-scale workload (default true); the
	// full scale reproduces the paper's sample sizes.
	Quick *bool `json:"quick,omitempty"`
	// Engine is the engine the DEFINED-RB series runs as written; the
	// other series are one-field edits of it (see workload).
	Engine scenario.EngineSpec `json:"engine"`
}

// SpecIDs lists the figures in the paper's order; each has a committed
// spec.
func SpecIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// LoadSpec resolves the committed spec for one figure id, after applying
// edits to the parsed file (cmd/defined-bench's -preset and -seed are
// such edits).
func LoadSpec(id string, edits ...func(*Spec)) (Spec, error) {
	raw, err := specFS.ReadFile("specs/" + id + ".json")
	if err != nil {
		return Spec{}, fmt.Errorf("experiments: no committed spec %q", id)
	}
	var s Spec
	if err := scenario.DecodeStrict(raw, &s); err != nil {
		return Spec{}, fmt.Errorf("experiments: spec %s: %v", id, err)
	}
	for _, edit := range edits {
		edit(&s)
	}
	return s.resolve()
}

// resolve writes every default explicitly (the scale, and the engine
// block through scenario.ResolveEngine) and rejects what a figure cannot
// run. Resolving a resolved spec changes nothing.
func (s Spec) resolve() (Spec, error) {
	if figureByID(s.Figure) == nil {
		return Spec{}, fmt.Errorf("experiments: unknown figure %q", s.Figure)
	}
	if s.Quick == nil {
		s.Quick = ptr(true)
	}
	eng, err := scenario.ResolveEngine(s.Engine)
	if err != nil {
		return Spec{}, fmt.Errorf("experiments: %s: %w", s.Figure, err)
	}
	// Figures pin the reference cost point: a lookahead figure is not the
	// paper's figure, a sharded one is the same figure slower.
	switch {
	case *eng.Shards > 0:
		return Spec{}, fmt.Errorf("experiments: %s with shards=%d — figures run the sequential reference engine", s.Figure, *eng.Shards)
	case *eng.Lookahead:
		return Spec{}, fmt.Errorf("experiments: %s with lookahead — figures pin the pre-deferral speculation dynamics", s.Figure)
	}
	s.Engine = eng
	return s, nil
}
