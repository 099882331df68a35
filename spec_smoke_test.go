package defined_test

// Mixed-protocol convergence smoke over the scenario front door: boot a
// small hierarchical topology from a committed spec file, run its
// horizon, and prove every protocol domain converged — OSPF intra-AS
// routes coherent against the invariant checker's Dijkstra oracle, BGP
// AS prefixes selected at every border, RIP stub prefixes known at every
// gateway. Small enough for -short; the 10k boot lives in the benches.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"defined"
	"defined/internal/faults"
	"defined/internal/scenario"
	"defined/internal/topology"
)

// loadScenarioFile parses and resolves a committed scenario from the
// repo's scenarios/ directory.
func loadScenarioFile(t testing.TB, path string) defined.RunSpec {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScenarioMixedProtocolSmoke(t *testing.T) {
	r := loadScenarioFile(t, "scenarios/mixed-smoke.json")
	p, err := r.Expand()
	if err != nil {
		t.Fatal(err)
	}
	net, err := defined.NewNetworkFromSpec(r)
	if err != nil {
		t.Fatal(err)
	}
	if !net.RunPlan(p) {
		t.Fatal("mixed-protocol scenario failed to quiesce within its horizon")
	}
	h := p.Hier

	// OSPF: intra-AS routes at every non-stub router match the Dijkstra
	// oracle. The Pairs filter scopes the global oracle to pairs where it
	// is ground truth: both endpoints OSPF speakers of the same AS (the
	// hierarchy's delay bands keep cross-AS detours strictly longer).
	ospfPair := func(src, dst defined.NodeID) bool {
		return h.AS[src] == h.AS[dst] &&
			h.Role[src] != topology.RoleStub && h.Role[dst] != topology.RoleStub
	}
	rep := net.CheckFaults(faults.CheckConfig{
		Pairs: ospfPair,
		Routes: func(src, dst defined.NodeID) (int64, bool) {
			d := scenario.OSPF(net.App(src))
			if d == nil {
				return 0, false
			}
			route, ok := d.RoutingTable()[dst]
			return int64(route.Cost), ok
		},
	})
	if err := rep.Err(); err != nil {
		t.Errorf("OSPF intra-AS coherence: %v", err)
	}

	// BGP: every border selected a best path for every other AS's prefix
	// (the plan auto-announces "as<a>" from each border).
	for a, border := range h.Borders {
		d := scenario.BGP(net.App(defined.NodeID(border)))
		if d == nil {
			t.Fatalf("AS %d border %d runs no BGP", a, border)
		}
		for other := range h.Borders {
			if other == a {
				continue
			}
			if _, ok := d.Best(fmt.Sprintf("as%d", other)); !ok {
				t.Errorf("AS %d border %d: no best path for as%d", a, border, other)
			}
		}
	}

	// RIP: every gateway learned the host prefix of every stub on its
	// chain (the plan auto-originates "n<id>" from each stub).
	stubsChecked := 0
	for a, gw := range h.Gateways {
		if gw < 0 {
			continue
		}
		d := scenario.RIP(net.App(defined.NodeID(gw)))
		if d == nil {
			t.Fatalf("AS %d gateway %d runs no RIP", a, gw)
		}
		for id := h.ASBase[a]; id < h.ASBase[a]+h.ASSize[a]; id++ {
			if h.Role[id] != topology.RoleStub {
				continue
			}
			if _, _, ok := d.Route(fmt.Sprintf("n%d", id)); !ok {
				t.Errorf("AS %d gateway %d: no RIP route to stub prefix n%d", a, gw, id)
			}
			stubsChecked++
		}
	}
	if stubsChecked == 0 {
		t.Fatal("smoke scenario generated no stub chains — it no longer exercises RIP")
	}
}

// TestScenarioFileMatchesInline pins scenarios/mixed-smoke.json against
// drift: the committed file must keep resolving to the exact plan this
// test suite smoke-checks (fingerprint compared against a fresh resolve
// of its own resolved form, proving canonical-form stability).
func TestScenarioFileRoundTrip(t *testing.T) {
	for _, path := range []string{"scenarios/mixed-smoke.json", "scenarios/hier10k.json"} {
		r := loadScenarioFile(t, path)
		p, err := r.Expand()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := scenario.ParseSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p2, err := r2.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if p.Fingerprint() != p2.Fingerprint() {
			t.Errorf("%s: fingerprint changed across round trip: %#x != %#x",
				path, p.Fingerprint(), p2.Fingerprint())
		}
	}
}
