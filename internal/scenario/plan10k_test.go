package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"defined/internal/topology"
	"defined/internal/vtime"
)

// hier10kSpec mirrors the committed scenarios/hier10k.json bench scenario:
// the ROADMAP item-2 scale target (≥ 10k routers, mixed protocols).
func hier10kSpec() Spec {
	return Spec{
		Name: "hier10k",
		Topology: TopologyRef{
			Kind: "hier",
			Hier: &topology.HierConfig{
				ASes: 160, ASDegree: 2,
				MinRouters: 40, MaxRouters: 90, RouterDegree: 2,
				StubFrac: 0.5, StubLen: 2,
				Seed: 42,
			},
		},
		Protocols: ProtocolSpec{
			OSPF: &OSPFSpec{},
			BGP:  &BGPSpec{},
			RIP:  &RIPSpec{UpdateInterval: Dur(2 * vtime.Second)},
		},
		Engine:  EngineSpec{Seed: ptr[uint64](42), Shards: ptr(4)},
		Horizon: HorizonSpec{Run: Duration(5 * vtime.Second)},
	}
}

// TestHierPlanDeterminism10k proves the whole declarative path is
// deterministic at the 10k-router scale target: resolving the same spec
// twice yields byte-identical snapshots, and expanding them yields plans
// with the same (pinned) fingerprint — without executing anything.
func TestHierPlanDeterminism10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router plan expansion in -short")
	}
	r1, err := hier10kSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := hier10kSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same spec resolved to different snapshots")
	}
	p1, err := r1.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Graph.N < 10_000 {
		t.Fatalf("10k scenario produced only %d routers", p1.Graph.N)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatalf("same snapshot, different plans: %#x vs %#x", p1.Fingerprint(), p2.Fingerprint())
	}
	// Pinned: drift means a committed hierarchical scenario no longer
	// reproduces — an intentional generator or resolver change must update
	// this constant and scenarios/hier10k.json's CI fingerprint together.
	const want = uint64(0xd8ce94722560e39f)
	if p1.Fingerprint() != want {
		t.Fatalf("10k plan fingerprint drifted: got %#x, want %#x", p1.Fingerprint(), want)
	}
	t.Logf("hier10k plan: N=%d nodes=%d events=%d fingerprint=%#x",
		p1.Graph.N, len(p1.Nodes), len(p1.Events), p1.Fingerprint())
}
