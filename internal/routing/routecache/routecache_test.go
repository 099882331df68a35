package routecache

import "testing"

func TestLookupInsertAndStats(t *testing.T) {
	var r Ring[uint64, int]
	if _, ok := r.Lookup(1); ok {
		t.Fatal("empty ring hit")
	}
	r.Insert(1, 10)
	r.Insert(2, 20)
	if v, ok := r.Lookup(1); !ok || v != 10 {
		t.Fatalf("Lookup(1) = %d,%v", v, ok)
	}
	if v, ok := r.Lookup(2); !ok || v != 20 {
		t.Fatalf("Lookup(2) = %d,%v", v, ok)
	}
	r.Skip()
	if st := r.Stats(); st != (Stats{Hits: 2, Misses: 1, Skipped: 1}) {
		t.Fatalf("stats = %+v", st)
	}
	if got := r.Stats().Lookups(); got != 4 {
		t.Fatalf("Lookups() = %d, want 4", got)
	}
}

func TestEvictionIsOldestFirstAndBounded(t *testing.T) {
	var r Ring[uint64, int]
	for i := uint64(0); i < ways+8; i++ {
		r.Insert(i, int(i))
	}
	if r.Len() != ways {
		t.Fatalf("ring grew past capacity: %d", r.Len())
	}
	// The first 8 insertions were evicted, the rest survive.
	for i := uint64(0); i < 8; i++ {
		if _, ok := r.Lookup(i); ok {
			t.Fatalf("evicted key %d still present", i)
		}
	}
	for i := uint64(8); i < ways+8; i++ {
		if v, ok := r.Lookup(i); !ok || v != int(i) {
			t.Fatalf("key %d lost to eviction", i)
		}
	}
}

func TestDisabledRingIsInert(t *testing.T) {
	var r Ring[uint64, int]
	r.Insert(1, 10)
	r.SetEnabled(false)
	if _, ok := r.Lookup(1); ok {
		t.Fatal("disabled ring served an entry")
	}
	r.Insert(2, 20)
	r.Skip()
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("disabled ring counted: %+v", st)
	}
	if r.Len() != 0 {
		t.Fatalf("disabling did not clear entries: %d", r.Len())
	}
	// Re-enabling starts from a clean slate.
	r.SetEnabled(true)
	if _, ok := r.Lookup(2); ok {
		t.Fatal("entry inserted while disabled surfaced after re-enable")
	}
}

func TestStructKeys(t *testing.T) {
	type key struct {
		epoch  uint64
		prefix string
	}
	var r Ring[key, string]
	r.Insert(key{1, "10.0.0.0/8"}, "p3")
	if v, ok := r.Lookup(key{1, "10.0.0.0/8"}); !ok || v != "p3" {
		t.Fatalf("struct key lookup = %q,%v", v, ok)
	}
	if _, ok := r.Lookup(key{1, "172.16.0.0/12"}); ok {
		t.Fatal("mismatched subkey hit")
	}
	if _, ok := r.Lookup(key{2, "10.0.0.0/8"}); ok {
		t.Fatal("mismatched epoch hit")
	}
}

// TestHashFoldIsOrderSensitiveAndLengthPrefixed pins the properties the
// daemons rely on: the fold separates field boundaries (length-prefixed
// strings) and distinguishes permutations within one item, while epoch
// *composition* (summing per-item hashes) stays commutative by
// construction.
func TestHashFoldIsOrderSensitiveAndLengthPrefixed(t *testing.T) {
	a := HashUint64(Hash(), 1)
	b := HashUint64(Hash(), 2)
	if a == b {
		t.Fatal("distinct values collide")
	}
	if HashUint64(a, 2) == HashUint64(b, 1) {
		t.Fatal("per-item fold must be order-sensitive")
	}
	if HashString(Hash(), "ab") == HashString(HashString(Hash(), "a"), "b") {
		t.Fatal("string fold must be length-prefixed")
	}
	// Commutative composition: the sum of item hashes ignores order.
	if a+b != b+a {
		t.Fatal("uint64 sum must commute")
	}
	// Determinism across calls (epochs must agree across nodes/replays).
	if HashString(Hash(), "x") != HashString(Hash(), "x") {
		t.Fatal("fold is not deterministic")
	}
}

// Lookups is the total number of cache consultations.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Skipped }
