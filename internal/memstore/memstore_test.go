package memstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"defined/internal/rng"
)

func TestReadWriteRoundTrip(t *testing.T) {
	s := New(3*PageSize + 100)
	data := []byte("hello, control plane")
	s.Write(PageSize-5, data) // spans a page boundary
	buf := make([]byte, len(data))
	s.Read(PageSize-5, buf)
	if !bytes.Equal(buf, data) {
		t.Fatalf("round trip: got %q", buf)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(100)
	for _, f := range []func(){
		func() { s.Write(90, make([]byte, 20)) },
		func() { s.Read(-1, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestSnapshotIsolation(t *testing.T) {
	s := New(2 * PageSize)
	s.Write(0, []byte("original"))
	id := s.Snapshot()
	s.Write(0, []byte("modified"))

	buf := make([]byte, 8)
	s.Read(0, buf)
	if string(buf) != "modified" {
		t.Fatalf("live state = %q", buf)
	}
	if _, err := s.RestoreDirty(id); err != nil {
		t.Fatal(err)
	}
	s.Read(0, buf)
	if string(buf) != "original" {
		t.Fatalf("restored state = %q", buf)
	}
}

func TestSnapshotCopiesNothingUpFront(t *testing.T) {
	s := New(64 * PageSize)
	before := s.CopiedBytes()
	id := s.Snapshot()
	if s.CopiedBytes() != before {
		t.Fatal("snapshot must not copy pages")
	}
	// First write to a shared page faults exactly one page.
	s.Write(0, []byte{1})
	if s.COWFaults() != 1 {
		t.Fatalf("faults = %d, want 1", s.COWFaults())
	}
	if s.CopiedBytes() != before+PageSize {
		t.Fatalf("copied = %d", s.CopiedBytes())
	}
	// Second write to the same page is free.
	s.Write(1, []byte{2})
	if s.COWFaults() != 1 {
		t.Fatalf("faults after second write = %d", s.COWFaults())
	}
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreFullCopiesEverything(t *testing.T) {
	const pages = 16
	s := New(pages * PageSize)
	id := s.Snapshot()
	s.Write(0, []byte{42}) // dirty one page only
	copied, err := s.RestoreFull(id)
	if err != nil {
		t.Fatal(err)
	}
	if copied != pages*PageSize {
		t.Fatalf("FK copied %d bytes, want full %d", copied, pages*PageSize)
	}
}

func TestRestoreDirtyCopiesOnlyDirty(t *testing.T) {
	const pages = 16
	s := New(pages * PageSize)
	id := s.Snapshot()
	s.Write(0, []byte{42})          // page 0 dirty
	s.Write(5*PageSize, []byte{43}) // page 5 dirty
	dirty, err := s.DirtyPagesSince(id)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != 2 {
		t.Fatalf("dirty pages = %d, want 2", dirty)
	}
	copied, err := s.RestoreDirty(id)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 2*PageSize {
		t.Fatalf("MI copied %d bytes, want %d", copied, 2*PageSize)
	}
	// State must now equal the snapshot.
	buf := make([]byte, 1)
	s.Read(0, buf)
	if buf[0] != 0 {
		t.Fatal("restore did not revert page 0")
	}
}

func TestRestoreDirtySameContentSkips(t *testing.T) {
	s := New(4 * PageSize)
	s.Write(0, []byte{7})
	id := s.Snapshot()
	s.Write(0, []byte{7}) // same value: page faulted but content equal
	copied, err := s.RestoreDirty(id)
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("MI copied %d bytes for identical content", copied)
	}
}

func TestUnknownSnapshotErrors(t *testing.T) {
	s := New(PageSize)
	if err := s.Release(99); err == nil {
		t.Error("release unknown should error")
	}
	if _, err := s.RestoreFull(99); err == nil {
		t.Error("restore-full unknown should error")
	}
	if _, err := s.RestoreDirty(99); err == nil {
		t.Error("restore-dirty unknown should error")
	}
	if _, err := s.DirtyPagesSince(99); err == nil {
		t.Error("dirty-since unknown should error")
	}
}

func TestVirtualVsPhysicalAccounting(t *testing.T) {
	const pages = 32
	s := New(pages * PageSize)
	base := s.PhysicalBytes()
	if base != pages*PageSize {
		t.Fatalf("base physical = %d", base)
	}
	// Ten forks with one dirty page each: VM grows linearly (the paper's
	// VM curve); PM grows only by the faulted pages (PM curve, <2%).
	for i := 0; i < 10; i++ {
		s.Snapshot()
		s.Write(i*PageSize, []byte{byte(i + 1)})
	}
	if s.Snapshots() != 10 {
		t.Fatalf("snapshots = %d", s.Snapshots())
	}
	wantVM := (1 + 10) * pages * PageSize
	if s.VirtualBytes() != wantVM {
		t.Fatalf("VM = %d, want %d", s.VirtualBytes(), wantVM)
	}
	pm := s.PhysicalBytes()
	if pm != base+10*PageSize {
		t.Fatalf("PM = %d, want %d", pm, base+10*PageSize)
	}
	if float64(pm) > float64(wantVM)*0.35 {
		t.Fatal("physical memory should be far below virtual with shared pages")
	}
}

func TestTouchAll(t *testing.T) {
	const pages = 8
	s := New(pages * PageSize)
	s.Snapshot()
	s.TouchAll()
	if s.COWFaults() != pages {
		t.Fatalf("TouchAll faulted %d pages, want %d", s.COWFaults(), pages)
	}
	// After touching, writes fault nothing.
	s.Write(0, []byte{1})
	if s.COWFaults() != pages {
		t.Fatal("write after TouchAll should not fault")
	}
}

func TestReleaseDropsSharing(t *testing.T) {
	s := New(4 * PageSize)
	id := s.Snapshot()
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if s.Snapshots() != 0 {
		t.Fatal("snapshot count should be 0")
	}
	// Pages are private again: writes don't fault.
	s.Write(0, []byte{1})
	if s.COWFaults() != 0 {
		t.Fatal("write after release should not fault")
	}
	if s.PhysicalBytes() != 4*PageSize {
		t.Fatalf("physical = %d", s.PhysicalBytes())
	}
}

// Property: RestoreDirty always produces exactly the snapshot state, for
// arbitrary write patterns.
func TestRestoreDirtyCorrectnessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		size := (r.Intn(8) + 1) * PageSize / 2
		s := New(size)
		// Random initial content.
		init := make([]byte, size)
		for i := range init {
			init[i] = byte(r.Intn(256))
		}
		s.Write(0, init)
		id := s.Snapshot()
		// Random mutations.
		for k := 0; k < 20; k++ {
			off := r.Intn(size)
			n := r.Intn(size - off)
			chunk := make([]byte, n)
			for i := range chunk {
				chunk[i] = byte(r.Intn(256))
			}
			s.Write(off, chunk)
		}
		if _, err := s.RestoreDirty(id); err != nil {
			return false
		}
		got := make([]byte, size)
		s.Read(0, got)
		return bytes.Equal(got, init)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RestoreFull and RestoreDirty produce identical states.
func TestRestoreModesAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		size := 3 * PageSize
		// Build two identical stores with identical snapshots.
		mk := func() (*Store, SnapID) {
			r := rng.New(seed)
			s := New(size)
			init := make([]byte, size)
			for i := range init {
				init[i] = byte(r.Intn(256))
			}
			s.Write(0, init)
			return s, s.Snapshot()
		}
		sA, idA := mk()
		sB, idB := mk()

		// Apply the same mutation stream to both.
		mutate := func(s *Store) {
			m := rng.New(seed ^ 0xdead)
			for k := 0; k < 10; k++ {
				off := m.Intn(size - 1)
				s.Write(off, []byte{byte(m.Intn(256))})
			}
		}
		mutate(sA)
		mutate(sB)

		if _, err := sA.RestoreFull(idA); err != nil {
			return false
		}
		if _, err := sB.RestoreDirty(idB); err != nil {
			return false
		}
		a := make([]byte, size)
		b := make([]byte, size)
		sA.Read(0, a)
		sB.Read(0, b)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// DirtyPagesSince counts pages whose content differs from snapshot id.
func (s *Store) DirtyPagesSince(id SnapID) (int, error) {
	sn, ok := s.snaps[id]
	if !ok {
		return 0, fmt.Errorf("memstore: unknown snapshot %d", id)
	}
	dirty := 0
	for pi, sp := range sn.pages {
		cur := s.pages[pi]
		if cur == sp {
			continue
		}
		if !bytes.Equal(cur.data, sp.data) {
			dirty++
		}
	}
	return dirty, nil
}

// CopiedBytes returns cumulative bytes physically copied (faults and
// restores).
func (s *Store) CopiedBytes() uint64 { return s.copiedBytes }
