// Package memstore is a paged copy-on-write state store that stands in for
// the fork()-based checkpointing of the paper's implementation (§3 and the
// §5.2 single-node microbenchmarks).
//
// The paper checkpoints control-plane state by forking the process before
// each message delivery; Linux shares pages copy-on-write between parent
// and child, so the physical memory cost is proportional to the pages
// actually written, while the virtual footprint grows with each live fork
// (Figure 7c). Rollback either resumes a forked child outright (FK) or
// copies only the changed bytes back via /proc/<pid>/mem (MI, Figure 7a).
//
// Store reproduces exactly that cost structure in user space: state lives
// in fixed-size pages; Snapshot() shares pages by reference (a "fork");
// writes to shared pages trigger a real copy (a "COW fault"); RestoreFull
// copies every page back (FK) while RestoreDirty copies only pages that
// differ (MI). Page accounting distinguishes virtual bytes (what the
// paper's VM curve reports) from physical bytes (the PM curve).
package memstore

import (
	"bytes"
	"fmt"
)

// PageSize is the granularity of sharing and copying, matching the 4 KiB
// pages of the platforms the paper measured on.
const PageSize = 4096

// page is a reference-counted unit of storage. refs counts how many page
// tables (the live store plus snapshots) point at it.
type page struct {
	data []byte
	refs int
}

// SnapID names a snapshot ("forked child").
type SnapID uint64

type snapshot struct {
	pages []*page
	size  int
}

// Store is a copy-on-write paged memory. Not safe for concurrent use.
type Store struct {
	pages []*page
	size  int

	snaps    map[SnapID]*snapshot
	nextSnap SnapID

	// cowFaults counts pages physically copied due to writes on shared
	// pages; copiedBytes counts all bytes physically copied for any
	// reason (faults + restores). Both are observable costs.
	cowFaults   uint64
	copiedBytes uint64
}

// New creates a zeroed store of the given size in bytes.
func New(size int) *Store {
	if size < 0 {
		panic("memstore: negative size")
	}
	n := (size + PageSize - 1) / PageSize
	s := &Store{
		pages: make([]*page, n),
		size:  size,
		snaps: make(map[SnapID]*snapshot),
	}
	for i := range s.pages {
		s.pages[i] = &page{data: make([]byte, PageSize), refs: 1}
	}
	return s
}

// checkRange panics on out-of-bounds access (programmer error).
func (s *Store) checkRange(off, n int) {
	if off < 0 || n < 0 || off+n > s.size {
		panic(fmt.Sprintf("memstore: access [%d, %d) outside store of %d bytes", off, off+n, s.size))
	}
}

// Read copies len(buf) bytes at off into buf.
func (s *Store) Read(off int, buf []byte) {
	s.checkRange(off, len(buf))
	for n := 0; n < len(buf); {
		pi := (off + n) / PageSize
		po := (off + n) % PageSize
		c := copy(buf[n:], s.pages[pi].data[po:])
		n += c
	}
}

// Write copies data into the store at off, copy-on-write faulting any
// shared page it touches.
func (s *Store) Write(off int, data []byte) {
	s.checkRange(off, len(data))
	for n := 0; n < len(data); {
		pi := (off + n) / PageSize
		po := (off + n) % PageSize
		s.ensurePrivate(pi)
		c := copy(s.pages[pi].data[po:], data[n:])
		n += c
	}
}

// ensurePrivate guarantees the live store owns pages[pi] exclusively,
// copying it if it is shared with a snapshot (the COW fault).
func (s *Store) ensurePrivate(pi int) {
	p := s.pages[pi]
	if p.refs == 1 {
		return
	}
	np := &page{data: make([]byte, PageSize), refs: 1}
	copy(np.data, p.data)
	p.refs--
	s.pages[pi] = np
	s.cowFaults++
	s.copiedBytes += PageSize
}

// Snapshot forks the current state: all pages become shared with the
// returned snapshot. The operation itself copies nothing (like fork()'s
// page-table duplication); cost materializes later as COW faults.
func (s *Store) Snapshot() SnapID {
	sn := &snapshot{pages: make([]*page, len(s.pages)), size: s.size}
	copy(sn.pages, s.pages)
	for _, p := range sn.pages {
		p.refs++
	}
	id := s.nextSnap
	s.nextSnap++
	s.snaps[id] = sn
	return id
}

// Release discards a snapshot ("reaps the forked child"), dropping its
// page references. Releasing an unknown snapshot is an error.
func (s *Store) Release(id SnapID) error {
	sn, ok := s.snaps[id]
	if !ok {
		return fmt.Errorf("memstore: release of unknown snapshot %d", id)
	}
	for _, p := range sn.pages {
		p.refs--
	}
	delete(s.snaps, id)
	return nil
}

// RestoreFull restores the store to snapshot id by physically copying every
// page — the FK rollback path (resume the forked child: the child's entire
// working set must be faulted in / re-established). Returns bytes copied.
func (s *Store) RestoreFull(id SnapID) (int, error) {
	sn, ok := s.snaps[id]
	if !ok {
		return 0, fmt.Errorf("memstore: restore of unknown snapshot %d", id)
	}
	copied := 0
	for pi, sp := range sn.pages {
		s.ensurePrivate(pi)
		copy(s.pages[pi].data, sp.data)
		copied += PageSize
	}
	s.copiedBytes += uint64(copied)
	return copied, nil
}

// RestoreDirty restores the store to snapshot id by copying only the pages
// that differ — the MI rollback path (intercepted memory writes let the
// implementation copy just the changed bytes, §5.2). Returns bytes copied.
func (s *Store) RestoreDirty(id SnapID) (int, error) {
	sn, ok := s.snaps[id]
	if !ok {
		return 0, fmt.Errorf("memstore: restore of unknown snapshot %d", id)
	}
	copied := 0
	for pi, sp := range sn.pages {
		cur := s.pages[pi]
		if cur == sp {
			continue // still shared: cannot differ
		}
		if bytes.Equal(cur.data, sp.data) {
			continue
		}
		s.ensurePrivate(pi)
		copy(s.pages[pi].data, sp.data)
		copied += PageSize
	}
	s.copiedBytes += uint64(copied)
	return copied, nil
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

// TouchAll pre-faults every shared page (the TM heuristic of §5.2: overload
// malloc to touch heap pages during the pre-fork so the COW copies happen
// in idle time rather than on the critical path).
func (s *Store) TouchAll() {
	for pi := range s.pages {
		s.ensurePrivate(pi)
	}
}

// Snapshots reports the number of live snapshots.
func (s *Store) Snapshots() int { return len(s.snaps) }

// VirtualBytes reports the summed virtual footprint: the live store plus
// every live snapshot counts its full size, exactly how the paper's VM
// curve accounts fork()ed processes (Figure 7c).
func (s *Store) VirtualBytes() int {
	total := s.size
	for _, sn := range s.snaps {
		total += sn.size
	}
	return total
}

// PhysicalBytes reports the deduplicated physical footprint: each distinct
// page object counts once regardless of how many tables share it — the
// paper's PM curve.
func (s *Store) PhysicalBytes() int {
	seen := make(map[*page]bool, len(s.pages))
	for _, p := range s.pages {
		seen[p] = true
	}
	for _, sn := range s.snaps {
		for _, p := range sn.pages {
			seen[p] = true
		}
	}
	return len(seen) * PageSize
}

// COWFaults returns the cumulative count of pages copied due to writes on
// shared pages.
func (s *Store) COWFaults() uint64 { return s.cowFaults }

// CopiedBytes returns cumulative bytes physically copied (faults and
// restores).
func (s *Store) CopiedBytes() uint64 { return s.copiedBytes }
