package rip

// Epoch-cache coherence tests: the topology epoch must move exactly with
// distance-vector entry changes (a timer refresh is a no-op), announcement
// rounds over an unchanged table must reuse the memoized vector, and a
// journal rewind past a bump must restore the pre-bump epoch so the old
// vector is served again.

import (
	"slices"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/routecache"
	"defined/internal/vtime"
)

func cachedRIP() *Daemon {
	d := New(Config{UpdateInterval: vtime.Second, Timeout: 3 * vtime.Second})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()
	return d
}

// outsPtr identifies an announcement vector allocation.
func outsPtr(outs []msg.Out) *msg.Out {
	if len(outs) == 0 {
		return nil
	}
	return &outs[0]
}

func TestTimerRefreshDoesNotBumpEpoch(t *testing.T) {
	d := cachedRIP()
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 1}))
	epoch := d.Epoch()

	// Advance time (new Deadline) and refresh the same route: the entry's
	// announced content is unchanged, so the epoch must not move.
	d.HandleTimer(vtime.Time(500 * vtime.Millisecond))
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 1}))
	if d.Refreshes() != 1 {
		t.Fatalf("refresh did not happen: %d", d.Refreshes())
	}
	if d.Epoch() != epoch {
		t.Fatalf("timer refresh bumped the epoch: %d -> %d", epoch, d.Epoch())
	}

	// A metric change is an effective mutation.
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 5}))
	if d.Epoch() == epoch {
		t.Fatal("metric change did not bump the epoch")
	}
}

func TestAnnouncementVectorMemoized(t *testing.T) {
	d := cachedRIP()
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 1}))

	first := d.HandleTimer(vtime.Time(vtime.Second))
	if len(first) == 0 {
		t.Fatal("no announcements at the update interval")
	}
	second := d.HandleTimer(vtime.Time(2 * vtime.Second))
	if outsPtr(first) != outsPtr(second) {
		t.Fatal("unchanged table rebuilt its announcement vector")
	}
	st := d.RouteCacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}

	// A route change invalidates (new epoch, new vector)...
	d.HandleMessage(annMsg(2, advert{Prefix: "172.16.0.0/12", Metric: 2}))
	third := d.HandleTimer(vtime.Time(3 * vtime.Second))
	if outsPtr(third) == outsPtr(first) {
		t.Fatal("changed table reused the stale announcement vector")
	}

	// ...and a rewind past the change restores the old epoch, so the old
	// vector is served again, pointer-identical (the substrate rewinds
	// exactly like this before replaying a wave).
	d.JournalRewind(0)
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 1}))
	again := d.HandleTimer(vtime.Time(vtime.Second))
	if outsPtr(again) != outsPtr(first) {
		t.Fatal("rewound daemon did not reuse the memoized vector")
	}
}

func TestRIPCacheDisabled(t *testing.T) {
	d := New(Config{UpdateInterval: vtime.Second})
	d.SetRouteCaching(false)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}})
	d.HandleMessage(annMsg(1, advert{Prefix: "10.0.0.0/8", Metric: 1}))

	first := d.HandleTimer(vtime.Time(vtime.Second))
	second := d.HandleTimer(vtime.Time(2 * vtime.Second))
	if len(first) == 0 || outsPtr(first) == outsPtr(second) {
		t.Fatal("disabled cache still shared announcement vectors")
	}
	if st := d.RouteCacheStats(); st != (api.RouteCacheStats{}) {
		t.Fatalf("disabled cache counted: %+v", st)
	}
}

// unfinishedRouteHash is routeContentHash without routecache.Finish: the
// bare FNV-1a fold, near-linear in the metric it folds last.
func unfinishedRouteHash(e routeEntry) uint64 {
	h := routecache.Hash()
	h = routecache.HashString(h, e.Prefix)
	h = routecache.HashUint64(h, uint64(e.NextHop))
	return routecache.HashUint64(h, uint64(e.Metric))
}

// Two routes that swap metrics change the announced vector, so they must
// move the epoch. The test takes the first pair of a fixed prefix set
// whose unfinished hashes cancel in the epoch sum under that swap (about
// one pair in four does) and checks that the next announcement round is
// recomputed, not served from the cache.
func TestMetricSwapMovesEpoch(t *testing.T) {
	prefixes := []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16",
		"172.16.0.0/12", "192.168.0.0/16", "192.168.1.0/24", "192.168.2.0/24"}
	h := func(prefix string, metric int) uint64 {
		return unfinishedRouteHash(routeEntry{Prefix: prefix, NextHop: 1, Metric: metric})
	}
	var p, q string
search:
	for i, a := range prefixes {
		for _, b := range prefixes[i+1:] {
			if h(a, 1)+h(b, 2) == h(a, 2)+h(b, 1) {
				p, q = a, b
				break search
			}
		}
	}
	if p == "" {
		t.Fatal("no prefix pair whose unfinished hashes cancel under a metric swap")
	}

	d := cachedRIP()
	d.HandleMessage(annMsg(1, advert{Prefix: p, Metric: 0}, advert{Prefix: q, Metric: 1}))
	d.HandleTimer(vtime.Time(vtime.Second))
	epoch := d.Epoch()
	d.HandleMessage(annMsg(1, advert{Prefix: p, Metric: 1}, advert{Prefix: q, Metric: 0}))
	if d.Epoch() == epoch {
		t.Fatalf("%s and %s swapping metrics 1 and 2 left the epoch at %d", p, q, epoch)
	}
	outs := d.HandleTimer(vtime.Time(2 * vtime.Second))
	want := []advert{{Prefix: p, Metric: 2}, {Prefix: q, Metric: 1}}
	for _, o := range outs {
		if got := o.Payload.(announcement).Routes; !slices.Equal(got, want) {
			t.Fatalf("announcement to %d: %v, want %v", o.To, got, want)
		}
	}
	if st := d.RouteCacheStats(); st.Misses != 2 {
		t.Fatalf("%d announcement vectors computed, want 2: %+v", st.Misses, st)
	}
}

// Epoch reports the current topology epoch.
func (d *Daemon) Epoch() uint64 { return d.st.epoch }
