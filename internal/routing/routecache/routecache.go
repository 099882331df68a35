// Package routecache implements the epoch-keyed route-computation cache
// shared by the routing daemons: each daemon maintains a **topology
// epoch** — a journaled state version bumped only by *effective*
// routing-input mutations — and memoizes `epoch → immutable result` so a
// recompute requested at an already-seen epoch reuses the shared result
// with zero allocation.
//
// # The epoch-bump contract
//
// An epoch identifies the *content* of a daemon's routing input (OSPF: the
// LSDB's per-origin link sets; RIP: the distance-vector entries; BGP: the
// RIB-in), not the history of writes to it. Each daemon folds a
// commutative per-item content hash into the epoch (epoch += h(new) −
// h(old) on every effective mutation), which gives the two properties the
// rollback substrate needs:
//
//  1. No-op writes never bump: a refreshed OSPF LSA with identical links,
//     or a RIP announcement that only refreshes a route's timer, leaves
//     the epoch (and therefore the cached result) untouched.
//  2. Epoch values survive rollback: the epoch is journaled daemon state,
//     so an MI rewind un-bumps it and the memoized result for the restored
//     epoch is valid again — and because the fold is commutative, a
//     rollback *replay* that re-applies the same mutations in a corrected
//     order passes through already-seen epochs and reuses their results
//     instead of recomputing. The memo itself never needs invalidation:
//     equal epochs mean equal input content (up to the 64-bit fingerprint,
//     whose collision probability over a run's few thousand distinct
//     contents is negligible), in any timeline and any checkpoint mode.
//
// The memo is deliberately *not* part of the checkpointable state: it is a
// pure cache whose entries are immutable shared results, so checkpoint
// clones, journal rewinds and lockstep replays all leave it in place.
// Observational invisibility (cache-on ≡ cache-off committed orders, stats
// and routing tables) is pinned by the cross-mode golden tests.
package routecache

// Stats counts cache outcomes. Skipped is the zero-lookup fast path (the
// daemon's current result is already stamped with the current epoch);
// Hits are memo lookups that found the epoch; Misses ran the real
// computation.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Skipped uint64
}

// Lookups is the total number of cache consultations.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses + s.Skipped }

// ways is the fixed capacity of a Ring: entries beyond it evict the oldest
// insertion. Sized to hold a PoP-scale boot progression (one distinct
// content per newly learned origin) with headroom; steady-state churn
// cycles through far fewer distinct contents.
const ways = 64

// Ring is a bounded epoch-keyed memo with deterministic round-robin
// eviction. The zero value is an enabled, empty cache; storage is
// allocated lazily on first insert. K is the epoch key (a bare epoch, or
// an (epoch, subkey) struct for per-prefix computations); V is the
// immutable computation result.
//
// Determinism matters: two executions that deliver the same mutations in
// the same order perform identical inserts, evictions and lookups, so
// hit/miss counters are comparable across checkpoint modes and lifecycle
// options in the golden tests.
type Ring[K comparable, V any] struct {
	entries  []entry[K, V]
	next     int
	disabled bool
	stats    Stats
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	live bool
}

// SetEnabled toggles the cache. Disabling (done by the substrate before
// any handler runs when the run opts out of caching) empties the ring and
// zeroes the counters, restoring the uncached daemons' exact behaviour.
func (r *Ring[K, V]) SetEnabled(on bool) {
	r.disabled = !on
	if !on {
		r.entries = nil
		r.next = 0
		r.stats = Stats{}
	}
}

// Enabled reports whether the cache is active.
func (r *Ring[K, V]) Enabled() bool { return !r.disabled }

// Lookup returns the memoized result for k. Counts a hit or a miss;
// disabled rings always miss and count nothing.
func (r *Ring[K, V]) Lookup(k K) (V, bool) {
	var zero V
	if r.disabled {
		return zero, false
	}
	for i := range r.entries {
		if r.entries[i].live && r.entries[i].key == k {
			r.stats.Hits++
			return r.entries[i].val, true
		}
	}
	r.stats.Misses++
	return zero, false
}

// Skip records that the daemon reused its current result without a lookup
// (its result is already stamped with the current epoch). No-op when
// disabled; callers gate the fast path on Enabled().
func (r *Ring[K, V]) Skip() {
	if r.disabled {
		return
	}
	r.stats.Skipped++
}

// Insert memoizes v for k, evicting the oldest insertion once the ring is
// full. Callers insert only after a miss, so keys are unique. No-op when
// disabled.
func (r *Ring[K, V]) Insert(k K, v V) {
	if r.disabled {
		return
	}
	if r.entries == nil {
		r.entries = make([]entry[K, V], ways)
	}
	r.entries[r.next] = entry[K, V]{key: k, val: v, live: true}
	r.next = (r.next + 1) % ways
}

// Len reports the number of live entries (tests).
func (r *Ring[K, V]) Len() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].live {
			n++
		}
	}
	return n
}

// Stats returns the cumulative counters.
func (r *Ring[K, V]) Stats() Stats { return r.stats }

// ---- content hashing ---------------------------------------------------------

// FNV-1a 64-bit: cheap, dependency-free, and stable across platforms (the
// epoch must be identical on every node and every replay of a recording).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash starts an FNV-1a fold.
func Hash() uint64 { return fnvOffset }

// HashUint64 folds one 64-bit value.
func HashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// Finish avalanches a completed per-item fold (MurmurHash3's 64-bit
// finalizer, a bijection) before it is summed into an epoch. A bare FNV-1a
// value is near-linear in its last byte — (h ^ b) * prime^8 — so two items
// whose trailing fields move in opposite directions (two LSAs swapping
// link costs 1 and 2) would cancel in the commutative sum about one time
// in four.
func Finish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// HashString folds a length-prefixed string.
func HashString(h uint64, s string) uint64 {
	h = HashUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
