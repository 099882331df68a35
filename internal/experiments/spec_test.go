package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"defined/internal/scenario"
)

// TestCommittedSpecEngine: every figure has a committed scenario, each
// states the reference engine the figure shapes were calibrated against
// (the goldens' seed, TF/FK, deferral off, sequential, no lookahead) —
// the engine block is what the figure runs, so this is the pin — and each
// survives a marshal → parse → resolve → expand round trip with an
// identical plan fingerprint.
func TestCommittedSpecEngine(t *testing.T) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(figures) {
		t.Fatalf("%d committed specs for %d figures", len(entries), len(figures))
	}
	for _, id := range SpecIDs() {
		r, err := LoadSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		s := r.Spec()
		if e := s.Engine; *e.Seed != 42 || e.Strategy != "TF/FK" || *e.Deferral || *e.Shards != 0 || *e.Lookahead || *e.Baseline || e.Ordering != "OO" {
			t.Errorf("%s: engine block is not the reference engine: %s", id, mustJSON(t, e))
		}
		if s.Workload == nil || s.Workload.Figure != id || !*s.Workload.Quick {
			t.Errorf("%s: workload block %s, want this figure at quick scale", id, mustJSON(t, s.Workload))
		}

		p, err := r.Expand()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		reparsed, err := scenario.ParseSpec(raw)
		if err != nil {
			t.Fatalf("%s: resolved spec does not reparse: %v", id, err)
		}
		r2, err := reparsed.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := r2.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if p.Fingerprint() != p2.Fingerprint() {
			t.Errorf("%s: fingerprint changed across round trip: %#x != %#x",
				id, p.Fingerprint(), p2.Fingerprint())
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCommittedSpecFingerprints pins the dry-run fingerprint of every
// committed figure scenario against specs/fingerprints.txt. Any drift in
// a spec file, the resolver's defaults or the expansion itself fails
// here; an intentional change regenerates the file (the failure message
// prints the new line).
func TestCommittedSpecFingerprints(t *testing.T) {
	f, err := os.Open("specs/fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, hex, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad fingerprint line %q", line)
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(hex, "0x"), 16, 64)
		if err != nil {
			t.Fatalf("bad fingerprint line %q: %v", line, err)
		}
		pinned[id] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, id := range SpecIDs() {
		r, err := LoadSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Expand()
		if err != nil {
			t.Fatal(err)
		}
		got := p.Fingerprint()
		want, ok := pinned[id]
		if !ok {
			t.Errorf("%s: not pinned; add line %q", id, fmt.Sprintf("%s %#x", id, got))
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprint %#x, pinned %#x — committed scenario content drifted",
				id, got, want)
		}
	}
}
