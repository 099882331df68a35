package experiments

// Committed figure scenarios. Every evaluation figure is a spec file under
// specs/ stating the workload and the engine it runs, pinned by a plan
// fingerprint (specs/fingerprints.txt) — "regenerate figure N" is a data
// file, and a variation of it (another seed, the full scale) is an edit
// of that file, not a second code path.

import (
	"embed"
	"fmt"

	"defined/internal/scenario"
)

//go:embed specs/*.json
var specFS embed.FS

// SpecIDs lists the figures in the paper's order; each has a committed
// scenario.
func SpecIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// LoadSpec resolves the committed scenario for one figure id, after
// applying edits to the parsed template (cmd/defined-bench's -preset and
// -seed are such edits).
func LoadSpec(id string, edits ...func(*scenario.Spec)) (scenario.RunSpec, error) {
	raw, err := specFS.ReadFile("specs/" + id + ".json")
	if err != nil {
		return scenario.RunSpec{}, fmt.Errorf("experiments: no committed spec %q", id)
	}
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		return scenario.RunSpec{}, fmt.Errorf("experiments: spec %s: %v", id, err)
	}
	for _, edit := range edits {
		edit(&s)
	}
	return s.Resolve()
}
