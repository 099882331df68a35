package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// maxFuzzCost bounds what a fuzz input may ask Expand to build, in nodes
// times attachment degree (hier10k.json is about 30 k). The scenario layer
// itself puts no cap on a topology's size, so without this a mutated
// "nodes" field spends the whole budget generating one graph.
const maxFuzzCost = 1 << 15

// expandCost is the work estimate maxFuzzCost holds resolved specs to,
// saturating instead of overflowing.
func expandCost(t TopologyRef) int {
	mul := func(a, b int) int {
		if a <= 0 || b <= 0 {
			return 0
		}
		if a > maxFuzzCost || b > maxFuzzCost || a*b > maxFuzzCost {
			return maxFuzzCost + 1
		}
		return a * b
	}
	switch t.Kind {
	case "brite":
		return mul(t.Nodes, max(t.Degree, 1))
	case "line":
		return t.Nodes
	case "hier":
		if t.Hier == nil {
			return 0
		}
		h := *t.Hier
		perAS := mul(h.MaxRouters, max(h.RouterDegree, 1)) + mul(h.StubLen, 1) + mul(h.ASDegree, 1)
		return mul(h.ASes, perAS)
	}
	return 0
}

// FuzzParseSpec feeds arbitrary bytes through ParseSpec → Resolve →
// Expand. Each stage returns an error or a valid result, never panics; an
// expanded plan has one node plan per router and a time-sorted schedule;
// and a resolved spec, written out as JSON and read back, resolves and
// expands to the same Plan.Fingerprint — the property that makes a
// committed resolved spec a reproducible artifact. The committed scenario
// files are the seed corpus, with two small generated topologies beside
// them.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed scenarios: %v", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// The files use only named and hierarchical topologies; two small
	// generated ones put the other generators and an event timeline in reach.
	f.Add([]byte(`{"name":"b","topology":{"kind":"brite","nodes":20,"degree":3},"protocols":{"ospf":{}},"events":[{"at":"1s","kind":"link-change","a":0,"b":1,"up":false}],"horizon":{"run":"2s"}}`))
	f.Add([]byte(`{"name":"l","topology":{"kind":"line","nodes":4,"delay":"5ms"},"protocols":{"rip":{"mode":"fixed"}},"events":[{"at":"10ms","kind":"rip-originate","node":3,"prefix":"p","metric":1}],"horizon":{"run":"3s","drain":false}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		r, err := s.Resolve()
		if err != nil {
			return
		}
		if expandCost(r.Spec().Topology) > maxFuzzCost {
			return
		}
		p, err := r.Expand()
		if err != nil {
			return
		}
		if len(p.Nodes) != p.Graph.N {
			t.Fatalf("plan has %d node plans for %d routers", len(p.Nodes), p.Graph.N)
		}
		if !sort.SliceIsSorted(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At }) {
			t.Fatal("plan schedule is not sorted by time")
		}
		resolved, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("resolved spec does not marshal: %v", err)
		}
		s2, err := ParseSpec(resolved)
		if err != nil {
			t.Fatalf("resolved spec does not parse back: %v\n%s", err, resolved)
		}
		r2, err := s2.Resolve()
		if err != nil {
			t.Fatalf("resolved spec does not re-resolve: %v\n%s", err, resolved)
		}
		p2, err := r2.Expand()
		if err != nil {
			t.Fatalf("re-resolved spec does not expand: %v\n%s", err, resolved)
		}
		if a, b := p.Fingerprint(), p2.Fingerprint(); a != b {
			t.Fatalf("fingerprint %016x re-resolves to %016x\n%s", a, b, resolved)
		}
	})
}
