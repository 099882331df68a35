// Package rng implements a small deterministic pseudorandom number
// generator used everywhere randomness is needed in the reproduction:
// link-delay jitter, workload synthesis, topology generation, and the
// "random ordering" (RO) ablation baseline.
//
// math/rand would work, but a local implementation guarantees the stream is
// stable across Go releases, which matters because experiment outputs (and
// several golden tests) depend on exact sequences. The generator is
// xoshiro256** seeded through splitmix64, following the reference
// constructions by Blackman and Vigna.
package rng

import "math"

// Source is a deterministic random stream. It is not safe for concurrent
// use; derive independent streams with Derive instead of sharing one.
type Source struct {
	s [4]uint64
}

// splitmix64 advances x and returns the next splitmix64 output. It is used
// for seeding and for stateless hashing.
func splitmix64(x uint64) (uint64, uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

// Hash64 deterministically hashes x to a well-mixed 64-bit value. It is the
// building block of the RO ordering ablation.
func Hash64(x uint64) uint64 {
	_, h := splitmix64(x)
	return h
}

// HashString deterministically hashes a string (FNV-1a, then mixed).
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Hash64(h)
}

// New returns a source seeded from seed. Distinct seeds give independent
// streams; the same seed always gives the same stream.
func New(seed uint64) *Source {
	var src Source
	x := seed
	for i := range src.s {
		x, src.s[i] = splitmix64(x)
	}
	// xoshiro must not be seeded with all zeros.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Derive returns a new independent stream keyed by name. It lets one master
// seed fan out into per-subsystem streams ("jitter", "trace", ...) without
// the subsystems perturbing each other's sequences.
func (r *Source) Derive(name string) *Source {
	return New(r.s[0] ^ HashString(name))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire-style bounded generation without modulo bias for practical
	// purposes (rejection on the narrow band).
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		low := v % bound
		if v-low >= threshold || threshold == 0 {
			return int(low)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// via inverse transform sampling (deterministic, unlike ziggurat tables
// that vary across library versions).
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform (deterministic given the stream).
func (r *Source) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a random permutation of [0, n).
//
// Test support: the rng, history, ordering and bgp tests shuffle with it.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pareto returns a Pareto(alpha) variate with minimum xm. Heavy-tailed
// inter-arrival times in the trace synthesizer use this.
func (r *Source) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}
