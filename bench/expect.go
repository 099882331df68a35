package main

// Pinned outputs. expect.json holds, for seed 42 and one held-out seed,
// what every workload must produce: the plan fingerprint, the committed
// count, the full Stats struct and the fingerprints of every node's
// committed order and final routing tables. A simulator speed-up must
// leave every one of them identical. On other seeds the same values are
// checked for agreement between the reps and across the workloads that
// must commit the same order. -pin rewrites the file.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"defined"
	"defined/internal/scenario"
)

//go:embed expect.json
var expectJSON []byte

// pinnedSeeds are the seeds -pin records: the default and a held-out one
// nothing is tuned on.
var pinnedSeeds = []uint64{42, 1789}

// pin is the exact output of one (workload, seed).
type pin struct {
	Plan      string        `json:"plan"` // Plan.Fingerprint of the generated spec
	Committed uint64        `json:"committed"`
	Order     string        `json:"order"`
	Tables    string        `json:"tables"`
	Stats     defined.Stats `json:"stats"`
}

// expectations is expect.json: seed → workload → pin.
type expectations map[string]map[string]pin

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("expect.json: %w", err)
	}
	return e, nil
}

func (e expectations) lookup(workload string, seed uint64) (pin, bool) {
	p, ok := e[strconv.FormatUint(seed, 10)][workload]
	return p, ok
}

func hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// pinOf is the exact output a check rep observed.
func pinOf(spec scenario.Spec, r *rep) (pin, error) {
	fp, err := planFingerprint(spec)
	if err != nil {
		return pin{}, err
	}
	return pin{Plan: hex(fp), Committed: r.committed, Order: hex(r.order), Tables: hex(r.tables), Stats: r.stats}, nil
}

// planFingerprint expands spec without running it.
func planFingerprint(spec scenario.Spec) (uint64, error) {
	p, err := expandSpec(spec)
	if err != nil {
		return 0, err
	}
	return p.Fingerprint(), nil
}

// diff lists the fields in which got departs from want.
func (want pin) diff(got pin) []string {
	var out []string
	if want.Plan != got.Plan {
		out = append(out, fmt.Sprintf("plan fingerprint %s, pinned %s", got.Plan, want.Plan))
	}
	if want.Committed != got.Committed {
		out = append(out, fmt.Sprintf("committed %d, pinned %d", got.Committed, want.Committed))
	}
	if want.Order != got.Order {
		out = append(out, fmt.Sprintf("committed-order fingerprint %s, pinned %s", got.Order, want.Order))
	}
	if want.Tables != got.Tables {
		out = append(out, fmt.Sprintf("routing-table fingerprint %s, pinned %s", got.Tables, want.Tables))
	}
	if want.Stats != got.Stats {
		out = append(out, fmt.Sprintf("stats %+v, pinned %+v", got.Stats, want.Stats))
	}
	return out
}
