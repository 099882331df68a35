package msg

import (
	"runtime"
	"sync"
	"testing"
)

// Fresh messages are cut from slabs of slabSize; these tests pin what that
// changes (allocations) and what it must not (identity, counters, poison).

// within reports whether m is a cell of slab.
func within(slab []Message, m *Message) bool {
	for i := range slab {
		if &slab[i] == m {
			return true
		}
	}
	return false
}

func TestSlabServesMisses(t *testing.T) {
	var p Pool
	first := p.Get()
	slab := p.slab // the cells after first, same array
	if len(slab) != slabSize-1 {
		t.Fatalf("slab has %d cells left after the first Get, want %d", len(slab), slabSize-1)
	}
	held := []*Message{first}
	for i := 1; i < slabSize; i++ {
		m := p.Get()
		if !within(slab, m) || m.Refs() != 1 || !m.Managed() || m.Payload != nil {
			t.Fatalf("Get %d: not a fresh cell of the current slab: %+v", i, m)
		}
		held = append(held, m)
	}
	if p.Live() != slabSize || p.Len() != 0 {
		t.Fatalf("live=%d len=%d with one slab handed out, want %d/0", p.Live(), p.Len(), slabSize)
	}
	if m := p.Get(); within(slab, m) || m == first {
		t.Fatal("the Get after a used-up slab must come from a new one")
	} else {
		held = append(held, m)
	}
	// Len counts released messages only — never the unissued cells of the
	// current slab — and the free list is preferred over the slab.
	if p.Len() != 0 {
		t.Fatalf("len=%d before any release: unissued slab cells must not count", p.Len())
	}
	for _, m := range held {
		m.Release()
	}
	if p.Live() != 0 || p.Len() != slabSize+1 {
		t.Fatalf("live=%d len=%d after releasing everything, want 0/%d", p.Live(), p.Len(), slabSize+1)
	}
	left := len(p.slab)
	if m := p.Get(); m != held[len(held)-1] || len(p.slab) != left {
		t.Fatal("a recycled struct must be reused before the slab is touched")
	}
}

// Under poison every release is impounded, so the slab serves every Get: no
// struct is ever handed out twice, Len stays zero, and the scribble lands
// in the slab cell itself (a stale pointer reads the sentinel).
func TestSlabUnderPoison(t *testing.T) {
	var p Pool
	p.SetPoison(true)
	seen := map[*Message]bool{}
	const n = 3*slabSize + 5
	for i := 0; i < n; i++ {
		m := p.Get()
		if seen[m] {
			t.Fatalf("Get %d: poison mode reused a released struct", i)
		}
		seen[m] = true
		m.From = 7
		m.Release()
		if m.From != poisonNode || m.Refs() != 0 {
			t.Fatalf("Get %d: slab cell not scribbled on release: %+v", i, m)
		}
		m.CheckLive("stale read") // counted, not panicked
	}
	if p.Quarantined() != n || p.Len() != 0 || p.Live() != 0 || p.Violations() != n {
		t.Fatalf("quarantined=%d len=%d live=%d violations=%d, want %d/0/0/%d",
			p.Quarantined(), p.Len(), p.Live(), p.Violations(), n, n)
	}
}

func TestPoolAllocs(t *testing.T) {
	var p Pool
	p.Get().Release()
	if got := testing.AllocsPerRun(1000, func() { p.Get().Release() }); got != 0 {
		t.Errorf("steady-state Get+Release: %v allocs, want 0", got)
	}
	// Cold: every Get is a miss. One slab per slabSize messages, plus the
	// growth of the slice that holds them here (amortized, below one per
	// slab) — so at most one allocation per slabSize Gets on average.
	var cold Pool
	held := make([]*Message, 0, 101*slabSize)
	got := testing.AllocsPerRun(100, func() {
		for i := 0; i < slabSize; i++ {
			held = append(held, cold.Get())
		}
	})
	if got != 1 {
		t.Errorf("cold: %v allocs per %d Gets, want 1", got, slabSize)
	}
	if cold.Live() != len(held) {
		t.Errorf("live=%d with %d messages held", cold.Live(), len(held))
	}
	// Burst: once the slabs are cut, releasing 4×slabSize held messages at
	// once and taking them back allocates nothing — the free list is a
	// chain through the released structs, not a buffer that grows with
	// the burst — and hands them back last released, first reused.
	var burst Pool
	held = held[:0]
	for range 4 * slabSize {
		held = append(held, burst.Get())
	}
	again := make([]*Message, len(held))
	if got := mallocs(func() {
		for _, m := range held {
			m.Release()
		}
		for i := range again {
			again[i] = burst.Get()
		}
	}); got != 0 {
		t.Errorf("burst of %d releases and Gets: %d allocs, want 0", len(held), got)
	}
	for i, m := range again {
		if m != held[len(held)-1-i] {
			t.Fatalf("burst Get %d: not the struct released %d-th from last", i, i)
		}
	}
}

// mallocs counts the heap allocations f makes, once, with no warm-up run
// (testing.AllocsPerRun's would hide a buffer that grows only the first
// time).
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Get from several goroutines while others release what they took: the
// slab cut and the free list are under one mutex in concurrent mode, so
// no struct is handed to two owners and the balance returns to zero.
func TestConcurrentSlabGetRelease(t *testing.T) {
	var p Pool
	p.SetConcurrent(true)
	const goroutines, rounds, batch = 8, 200, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g NodeID) {
			defer wg.Done()
			var mine [batch]*Message
			for i := 0; i < rounds; i++ {
				for j := range mine {
					mine[j] = p.Get()
					mine[j].From = g
				}
				for _, m := range mine {
					if m.From != g || m.Refs() != 1 {
						t.Errorf("message handed to two owners: from=%d refs=%d, want %d/1", m.From, m.Refs(), g)
					}
					m.Release()
				}
			}
		}(NodeID(g))
	}
	wg.Wait()
	if p.Live() != 0 || p.Violations() != 0 {
		t.Fatalf("live=%d violations=%d after the storm, want 0/0", p.Live(), p.Violations())
	}
	if n := p.Len(); n == 0 || n > goroutines*batch {
		t.Fatalf("len=%d: the high-water mark is at most %d messages", n, goroutines*batch)
	}
}
