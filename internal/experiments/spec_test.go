package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"testing"

	"defined/internal/scenario"
)

// TestCommittedSpecEngine: every figure has a committed spec with exactly
// the keys a figure reads, each states the reference engine the figure
// shapes were calibrated against (the goldens' seed, TF/FK, deferral off,
// sequential, no lookahead) — the engine block is what the figure runs, so
// this is the pin — and each resolved spec re-parses and re-resolves to
// itself.
func TestCommittedSpecEngine(t *testing.T) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(figures) {
		t.Fatalf("%d committed specs for %d figures", len(entries), len(figures))
	}
	for _, id := range SpecIDs() {
		raw, err := specFS.ReadFile("specs/" + id + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 3 || keys["figure"] == nil || keys["quick"] == nil || keys["engine"] == nil {
			t.Errorf("%s: committed keys are not exactly figure, quick, engine: %s", id, raw)
		}

		s, err := LoadSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		if e := s.Engine; *e.Seed != 42 || e.Strategy != "TF/FK" || *e.Deferral || *e.Shards != 0 || *e.Lookahead || *e.Baseline || e.Ordering != "OO" {
			t.Errorf("%s: engine block is not the reference engine: %s", id, mustJSON(t, e))
		}
		if s.Figure != id || !*s.Quick {
			t.Errorf("%s: spec says figure %q quick=%v, want this figure at quick scale", id, s.Figure, *s.Quick)
		}

		var reparsed Spec
		if err := scenario.DecodeStrict([]byte(mustJSON(t, s)), &reparsed); err != nil {
			t.Fatalf("%s: resolved spec does not reparse: %v", id, err)
		}
		s2, err := reparsed.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(t, s) != fingerprint(t, s2) {
			t.Errorf("%s: resolved spec changed across a round trip:\n%s\n%s", id, mustJSON(t, s), mustJSON(t, s2))
		}
	}
}

// TestSpecRules is the table of what a figure spec may not say, and of the
// defaults it may leave out.
func TestSpecRules(t *testing.T) {
	for _, c := range []struct{ name, raw, wantErr string }{
		{"shards", `{"figure": "fig6a", "engine": {"shards": 4}}`, "fig6a with shards=4"},
		{"lookahead", `{"figure": "fig6a", "engine": {"lookahead": true}}`, "fig6a with lookahead"},
		{"unknown figure", `{"figure": "fig9z", "engine": {}}`, `unknown figure "fig9z"`},
		{"no figure", `{"engine": {}}`, `unknown figure ""`},
		{"unknown field", `{"figure": "fig6a", "engine": {}, "horizon": {"run": "1s"}}`, `unknown field "horizon"`},
		{"unknown engine field", `{"figure": "fig6a", "engine": {"turbo": true}}`, `unknown field "turbo"`},
		{"engine contradiction", `{"figure": "fig6a", "engine": {"ordering": "RO", "deferral": true}}`, "deferral with RO"},
		{"trailing data", `{"figure": "fig6a", "engine": {}} {`, "trailing data"},
	} {
		var s Spec
		err := scenario.DecodeStrict([]byte(c.raw), &s)
		if err == nil {
			_, err = s.resolve()
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}

	s, err := Spec{Figure: "fig8d"}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !*s.Quick || *s.Engine.Seed != 0 || s.Engine.Strategy != "TM/MI" || !*s.Engine.Deferral {
		t.Errorf("omitted fields did not resolve to quick scale on the default engine, seed 0: %s", mustJSON(t, s))
	}
}

// fingerprint is the FNV-64a hash of a resolved spec's canonical JSON: it
// moves when a committed file or a resolver default moves, and with
// nothing else.
func fingerprint(t *testing.T, s Spec) uint64 {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(mustJSON(t, s)))
	return h.Sum64()
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCommittedSpecFingerprints pins the fingerprint of every committed
// figure spec, as resolved, against specs/fingerprints.txt. Any drift in a
// spec file or the resolver's defaults fails here; an intentional change
// regenerates the file (the failure message prints the new line).
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
		s, err := LoadSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		got := fingerprint(t, s)
		want, ok := pinned[id]
		if !ok {
			t.Errorf("%s: not pinned; add line %q", id, fmt.Sprintf("%s %#x", id, got))
			continue
		}
		if got != want {
			t.Errorf("%s: fingerprint %#x, pinned %#x — committed spec content drifted; new line %q",
				id, got, want, fmt.Sprintf("%s %#x", id, got))
		}
	}
}
