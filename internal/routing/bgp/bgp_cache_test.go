package bgp

// Epoch-cache coherence tests: every RIB-in change bumps the epoch, the
// Fixed (full decision) engine memoizes selections per (epoch, prefix) and
// reuses them across a rewind-and-replay of the same announcements, and
// the order-sensitive XORP 0.4 engine never consults the cache.

import (
	"testing"

	"defined/internal/routing/api"
	"defined/internal/routing/routecache"
)

func cachedBGP(mode Mode) *Daemon {
	d := New(mode)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()
	return d
}

func TestRibInChangeBumpsEpoch(t *testing.T) {
	d := cachedBGP(Fixed)
	p1, p2, _ := Figure4Paths("10.0.0.0/8")

	e0 := d.Epoch()
	d.HandleExternal(Announce{Path: p1})
	e1 := d.Epoch()
	if e1 == e0 {
		t.Fatal("RIB-in change did not bump the epoch")
	}
	// A duplicate (same path name) is deduplicated: no RIB-in change, no
	// bump.
	d.HandleExternal(Announce{Path: p1})
	if d.Epoch() != e1 {
		t.Fatal("duplicate announcement bumped the epoch")
	}
	d.HandleExternal(Announce{Path: p2})
	if d.Epoch() == e1 {
		t.Fatal("second path did not bump the epoch")
	}
}

func TestFixedDecisionMemoizedAcrossRewind(t *testing.T) {
	d := cachedBGP(Fixed)
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")

	mark := d.JournalMark()
	for _, p := range []Path{p1, p2, p3} {
		d.HandleExternal(Announce{Path: p})
	}
	want, _ := d.Best("10.0.0.0/8")
	endEpoch := d.Epoch()
	misses := d.RouteCacheStats().Misses

	// Rewind the whole wave and replay it in the same order: every
	// selection runs at an already-seen (epoch, prefix) and must hit.
	d.JournalRewind(mark)
	for _, p := range []Path{p1, p2, p3} {
		d.HandleExternal(Announce{Path: p})
	}
	got, _ := d.Best("10.0.0.0/8")
	if got != want {
		t.Fatalf("replayed selection differs: %+v vs %+v", got, want)
	}
	if d.Epoch() != endEpoch {
		t.Fatalf("replay reached epoch %d, want %d", d.Epoch(), endEpoch)
	}
	st := d.RouteCacheStats()
	if st.Misses != misses {
		t.Fatalf("replay re-ran decisions: misses %d -> %d", misses, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("replay recorded no cache hits")
	}

	// Reordered replay: intermediate RIB-ins differ (different epochs, so
	// those decisions run), but the full set converges on the same best.
	d.JournalRewind(mark)
	for _, p := range []Path{p3, p1, p2} {
		d.HandleExternal(Announce{Path: p})
	}
	if got, _ := d.Best("10.0.0.0/8"); got != want {
		t.Fatalf("reordered replay selected %+v, want %+v", got, want)
	}
	if d.Epoch() != endEpoch {
		t.Fatalf("commutative fold broken: epoch %d, want %d", d.Epoch(), endEpoch)
	}
}

func TestXORP04NeverConsultsCache(t *testing.T) {
	d := cachedBGP(XORP04)
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	for _, p := range []Path{p1, p2, p3} {
		d.HandleExternal(Announce{Path: p})
	}
	// The buggy engine's output is arrival-order-sensitive, so it must
	// not be served from an order-blind memo.
	if st := d.RouteCacheStats(); st != (api.RouteCacheStats{}) {
		t.Fatalf("XORP 0.4 engine touched the cache: %+v", st)
	}
}

// unfinishedPathHash is pathContentHash without routecache.Finish: the
// bare FNV-1a fold, near-linear in the IGP distance it folds last.
func unfinishedPathHash(p Path) uint64 {
	h := routecache.Hash()
	h = routecache.HashString(h, p.Name)
	h = routecache.HashString(h, p.Prefix)
	h = routecache.HashUint64(h, uint64(p.ASPathLen))
	h = routecache.HashUint64(h, uint64(p.NeighborAS))
	h = routecache.HashUint64(h, uint64(p.MED))
	return routecache.HashUint64(h, uint64(p.IGPDist))
}

// A replay that rebuilds a RIB-in with two paths' IGP distances swapped
// has a different best path, so it must reach a different epoch. The test
// takes the first pair of a fixed set of path names whose unfinished
// hashes cancel in the epoch sum under that swap (about one pair in four
// does) and checks that the replay's selection is recomputed.
func TestIGPSwapMovesEpoch(t *testing.T) {
	path := func(name string, igp int) Path {
		return Path{Name: name, Prefix: "10.0.0.0/8", ASPathLen: 3, NeighborAS: 100, MED: 10, IGPDist: igp}
	}
	names := []string{"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"}
	h := func(name string, igp int) uint64 { return unfinishedPathHash(path(name, igp)) }
	var a, b string
search:
	for i, x := range names {
		for _, y := range names[i+1:] {
			if h(x, 10)+h(y, 20) == h(x, 20)+h(y, 10) {
				a, b = x, y
				break search
			}
		}
	}
	if a == "" {
		t.Fatal("no path pair whose unfinished hashes cancel under an IGP swap")
	}

	d := cachedBGP(Fixed)
	mark := d.JournalMark()
	d.HandleExternal(Announce{Path: path(a, 10)})
	d.HandleExternal(Announce{Path: path(b, 20)})
	epoch := d.Epoch()
	d.JournalRewind(mark)
	d.HandleExternal(Announce{Path: path(a, 20)})
	d.HandleExternal(Announce{Path: path(b, 10)})
	if d.Epoch() == epoch {
		t.Fatalf("paths %s and %s swapping IGP distances 10 and 20 reached the same epoch %d", a, b, epoch)
	}
	if got, _ := d.Best("10.0.0.0/8"); got != path(b, 10) {
		t.Fatalf("replay selected %+v, want %+v", got, path(b, 10))
	}
	if st := d.RouteCacheStats(); st.Misses != 4 {
		t.Fatalf("%d selections computed, want all 4: %+v", st.Misses, st)
	}
}
