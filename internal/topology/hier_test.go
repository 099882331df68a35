package topology

import (
	"fmt"
	"hash/fnv"
	"testing"

	"defined/internal/vtime"
)

// hierFingerprint folds every structural byte of a hierarchy — links with
// delays and jitter, AS assignment, roles, borders, gateways — into one
// FNV-64 value. Byte-identical topologies ⇒ equal fingerprints.
func hierFingerprint(h *Hierarchy) uint64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%s %d\n", h.Name, h.N)
	for _, l := range h.Links {
		fmt.Fprintf(f, "%d %d %d %d\n", l.A, l.B, int64(l.Delay), int64(l.Jitter))
	}
	for i := range h.AS {
		fmt.Fprintf(f, "%d %d\n", h.AS[i], h.Role[i])
	}
	for a := range h.ASBase {
		fmt.Fprintf(f, "%d %d %d %d\n", h.ASBase[a], h.ASSize[a], h.Borders[a], h.Gateways[a])
	}
	return f.Sum64()
}

// hier10kConfig is the scale target of ROADMAP item 2: ≥ 10k routers.
func hier10kConfig(seed uint64) HierConfig {
	return HierConfig{
		ASes: 160, ASDegree: 2,
		MinRouters: 40, MaxRouters: 90, RouterDegree: 2,
		StubFrac: 0.5, StubLen: 2,
		Seed: seed,
	}
}

func TestHierDeterminism10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-router generation in -short")
	}
	cfg := hier10kConfig(42)
	h1, err := Hier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h1.N < 10_000 {
		t.Fatalf("10k config produced only %d routers", h1.N)
	}
	h2, err := Hier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := hierFingerprint(h1), hierFingerprint(h2)
	if f1 != f2 {
		t.Fatalf("same seed, different topology: %#x vs %#x", f1, f2)
	}
	// Pinned: any change to the generator's draw order or delay bands is a
	// deliberate, visible break of every committed hierarchical scenario.
	const want = uint64(0x75c134060e60c0e7)
	if f1 != want {
		t.Fatalf("10k hier fingerprint drifted: got %#x, want %#x", f1, want)
	}
	t.Logf("hier 10k: N=%d links=%d fingerprint=%#x bound=%v", h1.N, len(h1.Links), f1, h1.PropagationBound())
}

func TestHierStructure(t *testing.T) {
	cfg := DefaultHier(7)
	h, err := Hier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Connected() {
		t.Fatal("hier topology not connected")
	}
	if h.PropagationBound() <= 0 {
		t.Fatal("generator did not preset the propagation bound")
	}
	if got, exact := h.PropagationBound(), exactMaxPropagation(h.Graph); got < exact {
		t.Fatalf("preset bound %v below true diameter %v", got, exact)
	}
	for a := 0; a < cfg.ASes; a++ {
		base, size := h.ASBase[a], h.ASSize[a]
		if h.Borders[a] != base {
			t.Fatalf("AS %d: border %d not at block base %d", a, h.Borders[a], base)
		}
		if h.Role[h.Borders[a]] != RoleBorder {
			t.Fatalf("AS %d: border role = %v", a, h.Role[h.Borders[a]])
		}
		if gw := h.Gateways[a]; gw >= 0 {
			if h.Role[gw] != RoleGateway {
				t.Fatalf("AS %d: gateway role = %v", a, h.Role[gw])
			}
			if gw == h.Borders[a] {
				t.Fatalf("AS %d: gateway coincides with border", a)
			}
		}
		stubs := 0
		for i := 0; i < size; i++ {
			id := base + i
			if h.AS[id] != a {
				t.Fatalf("node %d: AS %d, want %d (blocks must be contiguous)", id, h.AS[id], a)
			}
			if h.Role[id] == RoleStub {
				stubs++
				// Stub routers are RIP-only leaves: degree ≤ 2 (chain),
				// and every neighbor stays inside the AS block.
				for _, nb := range h.Neighbors(id) {
					if h.AS[nb] != a {
						t.Fatalf("stub %d has out-of-AS neighbor %d", id, nb)
					}
				}
			}
		}
		if h.Gateways[a] >= 0 && stubs != cfg.StubLen {
			t.Fatalf("AS %d: %d stub routers, want %d", a, stubs, cfg.StubLen)
		}
		if h.Gateways[a] < 0 && stubs != 0 {
			t.Fatalf("AS %d: stub routers without a gateway", a)
		}
	}
	// Inter-AS links connect exactly the border routers of adjacent ASes.
	for _, e := range h.ASLinks {
		if _, ok := h.LinkBetween(h.Borders[e[0]], h.Borders[e[1]]); !ok {
			t.Fatalf("AS edge %v has no border-border link", e)
		}
	}
	for _, l := range h.Links {
		if h.AS[l.A] != h.AS[l.B] {
			if h.Role[l.A] != RoleBorder || h.Role[l.B] != RoleBorder {
				t.Fatalf("inter-AS link %d-%d not border-border (%v-%v)",
					l.A, l.B, h.Role[l.A], h.Role[l.B])
			}
		}
	}
}

func TestHierValidate(t *testing.T) {
	bad := []HierConfig{
		{},
		{ASes: 4, ASDegree: 1, MinRouters: 1, MaxRouters: 4, RouterDegree: 1},
		{ASes: 4, ASDegree: 1, MinRouters: 8, MaxRouters: 4, RouterDegree: 1},
		{ASes: 4, ASDegree: 1, MinRouters: 2, MaxRouters: 4, RouterDegree: 1, StubFrac: 1.5},
		{ASes: 4, ASDegree: 1, MinRouters: 2, MaxRouters: 4, RouterDegree: 1, StubFrac: 0.5, StubLen: 0},
	}
	for i, cfg := range bad {
		if _, err := Hier(cfg); err == nil {
			t.Errorf("config %d: invalid HierConfig accepted", i)
		}
	}
}

// exactMaxPropagation bypasses the preset to compute the true diameter.
func exactMaxPropagation(g *Graph) (d vtime.Duration) {
	for s := 0; s < g.N; s++ {
		for _, dd := range g.ShortestDelays(s) {
			if dd > d {
				d = dd
			}
		}
	}
	return d
}

// DefaultHier returns a baseline configuration producing a few hundred
// routers; scale ASes / MaxRouters up for the 10k–100k-router runs.
func DefaultHier(seed uint64) HierConfig {
	return HierConfig{
		ASes: 12, ASDegree: 2,
		MinRouters: 8, MaxRouters: 32, RouterDegree: 2,
		StubFrac: 0.5, StubLen: 2,
		Seed: seed,
	}
}
