package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/100 times", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seeded stream looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestDeriveIndependence(t *testing.T) {
	master := New(7)
	a := master.Derive("jitter")
	b := master.Derive("trace")
	c := master.Derive("jitter")
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different names should differ")
	}
	a2 := New(7).Derive("jitter")
	_ = c
	av, a2v := New(7).Derive("jitter").Uint64(), a2.Uint64()
	if av != a2v {
		t.Fatal("derivation is not deterministic")
	}
}

func TestDeriveNDeterministic(t *testing.T) {
	if New(9).DeriveN(3).Uint64() != New(9).DeriveN(3).Uint64() {
		t.Fatal("DeriveN not deterministic")
	}
	if New(9).DeriveN(3).Uint64() == New(9).DeriveN(4).Uint64() {
		t.Fatal("DeriveN(3) and DeriveN(4) coincide")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestInt63nBounds(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1_000_000_007)
		if v < 0 || v >= 1_000_000_007 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(19)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for n := 0; n < 30; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(29)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(31)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(2.0, 1.5)
		if v < 2.0 {
			t.Fatalf("Pareto below minimum: %v", v)
		}
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash64(12345)
	flipped := Hash64(12345 ^ 1)
	diff := base ^ flipped
	bits := 0
	for diff != 0 {
		bits += int(diff & 1)
		diff >>= 1
	}
	if bits < 10 || bits > 54 {
		t.Fatalf("poor avalanche: %d differing bits", bits)
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("sprintlink") != HashString("sprintlink") {
		t.Fatal("HashString not deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("HashString trivially collides")
	}
}

// Property: Intn respects bounds for arbitrary seeds and sizes.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Int63n returns a uniformly random int64 in [0, n).
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < (1<<63)-((1<<63)%bound) || (1<<63)%bound == 0 {
			return int64(v % bound)
		}
	}
}

// DeriveN returns a new independent stream keyed by an integer, e.g. a node
// or link index.
func (r *Source) DeriveN(n uint64) *Source {
	return New(r.s[0] ^ Hash64(n^0xa5a5a5a5a5a5a5a5))
}
