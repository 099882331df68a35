package ospf

// Epoch-cache coherence tests: the topology epoch must move exactly with
// effective SPF-input mutations (a refreshed LSA with identical links is a
// no-op), a journal rewind past an epoch bump must restore the pre-bump
// epoch and the exact table pointer, and a re-delivered wave at the
// restored epoch must hit the cache instead of rebuilding the table.

import (
	"testing"

	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// tablePtr identifies the current table by its spine: every build cuts a
// fresh one, even when it shares every chunk, and cache hits and rewinds
// reinstall the shared spine, so pointer identity is observable in
// white-box tests.
func (d *Daemon) tablePtr() **chunk {
	if len(d.st.table) == 0 {
		return nil
	}
	return &d.st.table[0]
}

func cachedDaemon() *Daemon {
	d := New(Config{})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()
	return d
}

// fullLSDB brings node 0's LSDB to a converged 0-1-2 triangle-less line:
// 1 advertises {0,2}, 2 advertises {1}.
func fullLSDB(d *Daemon) {
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 1, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 1, Links: []Adj{{To: 1, Cost: 1}}}))
}

func TestNoOpFloodDoesNotBumpEpoch(t *testing.T) {
	d := cachedDaemon()
	fullLSDB(d)
	epoch := d.Epoch()
	table := d.tablePtr()
	runs := d.SPFRuns()
	skipped := d.RouteCacheStats().Skipped

	// A refreshed LSA: same origin, same links, higher sequence. It is
	// installed (newer wins, flooding proceeds) but the SPF input is
	// unchanged — the epoch must not move and the recompute must be
	// skipped without rebuilding the table.
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 9, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	if d.st.lsdb[1].Seq != 9 {
		t.Fatalf("refreshed LSA not installed: seq %d", d.st.lsdb[1].Seq)
	}
	if d.Epoch() != epoch {
		t.Fatalf("no-op flood bumped the epoch: %d -> %d", epoch, d.Epoch())
	}
	if d.tablePtr() != table {
		t.Fatal("no-op flood rebuilt the routing table")
	}
	if d.SPFRuns() != runs+1 {
		t.Fatalf("SPFRuns must count every request: %d, want %d", d.SPFRuns(), runs+1)
	}
	if got := d.RouteCacheStats().Skipped; got != skipped+1 {
		t.Fatalf("Skipped = %d, want %d", got, skipped+1)
	}

	// A content change does bump and does rebuild.
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 2, Links: []Adj{{To: 1, Cost: 1}, {To: 3, Cost: 4}}}))
	if d.Epoch() == epoch {
		t.Fatal("effective mutation did not bump the epoch")
	}
	if d.tablePtr() == table {
		t.Fatal("effective mutation did not rebuild the table")
	}
}

func TestRewindRestoresEpochAndTablePointer(t *testing.T) {
	d := cachedDaemon()
	fullLSDB(d)
	mark := d.JournalMark()
	epoch := d.Epoch()
	table := d.tablePtr()

	// An effective mutation past the mark: epoch bumps, table rebuilt.
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 2, Links: []Adj{{To: 1, Cost: 1}, {To: 3, Cost: 4}}}))
	if d.Epoch() == epoch || d.tablePtr() == table {
		t.Fatal("mutation did not move epoch/table")
	}

	// Rewind past the bump: the pre-bump epoch and the *exact* table
	// pointer must come back (the undo entry restores the shared slice
	// header, not a rebuild).
	d.JournalRewind(mark)
	if d.Epoch() != epoch {
		t.Fatalf("rewind restored epoch %d, want %d", d.Epoch(), epoch)
	}
	if d.tablePtr() != table {
		t.Fatal("rewind did not restore the table pointer")
	}
	if d.st.tableEpoch != d.st.epoch {
		t.Fatalf("restored table not stamped current: tableEpoch %d, epoch %d",
			d.st.tableEpoch, d.st.epoch)
	}
}

func TestRedeliveredWaveHitsCache(t *testing.T) {
	d := cachedDaemon()
	fullLSDB(d)
	mark := d.JournalMark()

	// Deliver a wave of two effective mutations, note the tables built.
	lsa2 := &LSA{Origin: 2, Seq: 2, Links: []Adj{{To: 1, Cost: 1}, {To: 3, Cost: 4}}}
	lsa1 := &LSA{Origin: 1, Seq: 2, Links: []Adj{{To: 0, Cost: 1}}}
	d.HandleMessage(lsaMsg(1, lsa2))
	mid := d.tablePtr()
	d.HandleMessage(lsaMsg(1, lsa1))
	end := d.tablePtr()
	endEpoch := d.Epoch()
	misses := d.RouteCacheStats().Misses

	// Roll back past the whole wave (what the substrate does before a
	// replay), then re-deliver it: every recompute passes through an
	// already-seen epoch and must reuse the memoized tables — zero new
	// misses, pointer-identical results.
	d.JournalRewind(mark)
	hits := d.RouteCacheStats().Hits
	d.HandleMessage(lsaMsg(1, lsa2))
	if d.tablePtr() != mid {
		t.Fatal("replayed first mutation did not reuse the memoized table")
	}
	d.HandleMessage(lsaMsg(1, lsa1))
	if d.tablePtr() != end {
		t.Fatal("replayed second mutation did not reuse the memoized table")
	}
	if d.Epoch() != endEpoch {
		t.Fatalf("replay reached epoch %d, want %d", d.Epoch(), endEpoch)
	}
	st := d.RouteCacheStats()
	if st.Misses != misses {
		t.Fatalf("replay recomputed: misses %d -> %d", misses, st.Misses)
	}
	if st.Hits != hits+2 {
		t.Fatalf("replay hits = %d, want %d", st.Hits, hits+2)
	}
}

// TestReplayInDifferentOrderStaysCoherent is the ABA case the commutative
// content fold exists for: after a rewind, re-applying the same mutations
// in a *different* order walks through different intermediate epochs (so
// those recompute) but reaches the same final epoch and must converge to
// the same shared table.
func TestReplayInDifferentOrderStaysCoherent(t *testing.T) {
	d := cachedDaemon()
	fullLSDB(d)
	mark := d.JournalMark()

	lsaA := &LSA{Origin: 1, Seq: 2, Links: []Adj{{To: 0, Cost: 1}}}
	lsaB := &LSA{Origin: 2, Seq: 2, Links: []Adj{{To: 1, Cost: 1}, {To: 3, Cost: 4}}}
	d.HandleMessage(lsaMsg(1, lsaA))
	afterA := d.Epoch() // intermediate content {A}: must NOT be served for {B}
	d.HandleMessage(lsaMsg(1, lsaB))
	end := d.tablePtr()
	endEpoch := d.Epoch()

	d.JournalRewind(mark)
	d.HandleMessage(lsaMsg(1, lsaB))
	if d.Epoch() == afterA {
		t.Fatal("different intermediate contents collided on one epoch")
	}
	tableB := d.st.table.flat()
	d.HandleMessage(lsaMsg(1, lsaA))
	if d.Epoch() != endEpoch {
		t.Fatalf("commutative fold broken: epoch %d, want %d", d.Epoch(), endEpoch)
	}
	if d.tablePtr() != end {
		t.Fatal("reordered replay did not converge on the memoized final table")
	}
	// And the intermediate table served for {B} was really {B}'s.
	d2 := New(Config{})
	d2.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	fullLSDB(d2)
	d2.HandleMessage(lsaMsg(1, lsaB))
	for i, r := range d2.st.table.flat() {
		if i < len(tableB) && tableB[i] != r {
			t.Fatalf("intermediate table diverged at %d: %+v vs %+v", i, tableB[i], r)
		}
	}
}

// TestFlapReturnsToMemoizedTable mirrors the evaluation workload: a link
// down/up cycle returns the LSDB content (links, not sequence numbers) to
// its pre-flap value, so the post-repair SPF must reuse the pre-flap table
// with zero allocation.
func TestFlapReturnsToMemoizedTable(t *testing.T) {
	d := cachedDaemon()
	fullLSDB(d)
	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	preFlap := d.tablePtr()
	preEpoch := d.Epoch()

	d.HandleExternal(api.LinkChange{Peer: 1, Up: false})
	if d.Epoch() == preEpoch {
		t.Fatal("link failure did not bump the epoch")
	}
	d.HandleExternal(api.LinkChange{Peer: 1, Up: true})
	if d.Epoch() != preEpoch {
		t.Fatalf("repair did not return to the pre-flap epoch: %d vs %d", d.Epoch(), preEpoch)
	}
	if d.tablePtr() != preFlap {
		t.Fatal("repair rebuilt a table the cache already held")
	}
}

// TestCacheDisabledMatchesLegacyBehaviour pins the opt-out: with caching
// off every request recomputes (a fresh spine each time, whatever chunks it
// shares) and the counters stay zero.
func TestCacheDisabledMatchesLegacyBehaviour(t *testing.T) {
	d := New(Config{})
	d.SetRouteCaching(false)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	fullLSDB(d)
	table := d.tablePtr()

	// Even a no-op refresh rebuilds when the cache is off.
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 9, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	if d.tablePtr() == table {
		t.Fatal("cache disabled but table was reused")
	}
	if st := d.RouteCacheStats(); st != (api.RouteCacheStats{}) {
		t.Fatalf("disabled cache counted: %+v", st)
	}
}
