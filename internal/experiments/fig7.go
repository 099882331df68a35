package experiments

import (
	"slices"
	"time"

	"defined/internal/memstore"
	"defined/internal/metrics"
	"defined/internal/rng"
)

// Figure 7 reproduces the paper's single-node microbenchmarks: the costs
// of checkpointing and rollback measured on one instrumented node (§5.2).
// Unlike the network-level figures these measure real wall-clock time of
// the checkpoint substrate (the memstore package plays the role of
// fork()'s copy-on-write memory and the /proc/<pid>/mem dirty-byte
// interception).

// fig7State describes the synthetic daemon state the microbenchmarks run
// against: sized like the XORP OSPF process the paper measured (tens of
// MB of virtual memory, a few MB hot).
type fig7State struct {
	store   *memstore.Store
	r       *rng.Source
	size    int
	touched []int // pages the current packet has written
}

func newFig7State(w workload) *fig7State {
	size := 4 << 20 // 4 MiB hot state
	if w.quick {
		size = 1 << 20
	}
	return newFig7StateSized(w, size)
}

func newFig7StateSized(w workload, size int) *fig7State {
	st := &fig7State{
		store: memstore.New(size),
		r:     rng.New(w.seed()).Derive("fig7"),
		size:  size,
	}
	// Populate with nonzero content so restores move real bytes.
	chunk := make([]byte, 64<<10)
	for off := 0; off < size; off += len(chunk) {
		for i := range chunk {
			chunk[i] = byte(st.r.Intn(256))
		}
		end := off + len(chunk)
		if end > size {
			end = size
		}
		st.store.Write(off, chunk[:end-off])
	}
	return st
}

// sinceMs is the wall time since t0 in milliseconds at nanosecond
// resolution: the non-rollback costs of Figure 7b are a few microseconds,
// which whole-microsecond truncation would quantize into two or three
// distinct values.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// processPacket emulates one routing-message's state mutation: a handful
// of scattered writes (RIB entry updates) touching dirtyPages distinct
// pages. A write that would land on a page the packet already wrote is
// drawn again, so the packet's page count — what copy-on-write charges
// for — is exactly dirtyPages.
func (s *fig7State) processPacket(dirtyPages int) {
	buf := []byte{0}
	s.touched = s.touched[:0]
	for len(s.touched) < dirtyPages {
		off := s.r.Intn(s.size - 1)
		if slices.Contains(s.touched, off/memstore.PageSize) {
			continue
		}
		s.touched = append(s.touched, off/memstore.PageSize)
		buf[0] = byte(s.r.Intn(256))
		s.store.Write(off, buf)
	}
}

func (w workload) fig7Trials() int {
	if w.quick {
		return 60
	}
	return 400
}

// fig7a reproduces Figure 7a: the CDF of the time to perform one rollback,
// comparing FK (resume the fork: full state copy) against MI (manually
// intercepted memory writes: copy only changed bytes). Paper result: MI's
// median is ~0.6 ms, an order of magnitude below FK.
func fig7a(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig7a",
		Title:  "Rollback overhead of DEFINED-RB (single node)",
		XLabel: "processing time [ms]",
		YLabel: "CDF",
	}
	var fk, mi metrics.Dist
	st := newFig7State(w)
	for i := 0; i < w.fig7Trials(); i++ {
		snap := st.store.Snapshot()
		// A rollback undoes a few out-of-order deliveries' worth of
		// mutations.
		st.processPacket(4 + st.r.Intn(28))

		t0 := time.Now()
		if _, err := st.store.RestoreFull(snap); err != nil {
			panic(err)
		}
		fk.Add(sinceMs(t0))

		// Re-dirty and measure the MI path against the same snapshot.
		st.processPacket(4 + st.r.Intn(28))
		t0 = time.Now()
		if _, err := st.store.RestoreDirty(snap); err != nil {
			panic(err)
		}
		mi.Add(sinceMs(t0))
		if err := st.store.Release(snap); err != nil {
			panic(err)
		}
	}
	cdfSeries(f, "DEFINED-RB(MI)", &mi, 40)
	cdfSeries(f, "DEFINED-RB(FK)", &fk, 40)
	return f, nil
}

// fig7bModes are Figure 7b's series, in plotting order: unmodified
// software, then the three fork timings.
var fig7bModes = []string{"XORP", "TM", "PF", "TF"}

// fig7bDirty is the number of pages one Figure 7b packet writes.
const fig7bDirty = 6

// fig7bPacket processes one packet under fork timing mode and returns what
// it cost on the critical path: wall time, and the deterministic in-band
// counts — snapshots taken and COW faults. XORP takes no checkpoint; TF
// forks when the packet arrives, so the snapshot and the COW faults it
// causes are both in band; PF pre-forks during idle time, so the packet
// still pays the faults on the pages it touches; TM pre-forks and touches
// memory during idle time, so the packet's writes land on already-private
// pages.
func (s *fig7State) fig7bPacket(mode string) (ms float64, snaps int, faults uint64) {
	var id memstore.SnapID
	if mode == "PF" || mode == "TM" {
		id = s.store.Snapshot()
		if mode == "TM" {
			s.store.TouchAll()
		}
	}
	live, f0 := s.store.Snapshots(), s.store.COWFaults()
	t0 := time.Now()
	if mode == "TF" {
		id = s.store.Snapshot()
	}
	s.processPacket(fig7bDirty)
	ms = sinceMs(t0)
	snaps, faults = s.store.Snapshots()-live, s.store.COWFaults()-f0
	if mode != "XORP" {
		if err := s.store.Release(id); err != nil {
			panic(err)
		}
	}
	return ms, snaps, faults
}

// fig7b reproduces Figure 7b: the CDF of per-packet processing time
// without rollbacks, comparing fork timings against unmodified software.
// Paper ordering: XORP < TM (pre-fork + touched memory) < PF (pre-fork)
// < TF (fork at arrival).
func fig7b(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig7b",
		Title:  "Non-rollback overhead of DEFINED-RB (single node)",
		XLabel: "processing time [ms]",
		YLabel: "CDF",
	}
	for _, mode := range fig7bModes {
		st := newFig7State(w)
		var d metrics.Dist
		for i := 0; i < w.fig7Trials(); i++ {
			ms, _, _ := st.fig7bPacket(mode)
			d.Add(ms)
		}
		name := "XORP"
		if mode != "XORP" {
			name = "DEFINED-RB(" + mode + ")"
		}
		cdfSeries(f, name, &d, 40)
	}
	return f, nil
}

// fig7c reproduces Figure 7c: the CDF of memory allocated to the node
// process over the run — virtual memory (VM) grows linearly with the
// number of live forked checkpoints, while physical memory (PM) stays
// within a few percent of the baseline thanks to page sharing.
func fig7c(w workload) (*metrics.Figure, error) {
	f := &metrics.Figure{
		ID:     "fig7c",
		Title:  "Memory overhead of DEFINED-RB (single node)",
		XLabel: "memory [MB]",
		YLabel: "CDF",
	}
	// The process image is large relative to the per-message dirty set,
	// as on the paper's testbed (XORP VM in the hundreds of MB, a few
	// touched pages per routing message) — that ratio is what keeps the
	// physical inflation under a few percent.
	st := newFig7StateSized(w, 16<<20)
	var xorp, vm, pm metrics.Dist
	const mb = 1 << 20
	baseline := float64(st.size) / mb

	// The history window keeps up to `window` live checkpoints; packets
	// arrive, checkpoints retire FIFO — exactly the engine's settlement.
	window := 24
	if w.quick {
		window = 12
	}
	var live []memstore.SnapID
	samples := w.fig7Trials()
	for i := 0; i < samples; i++ {
		live = append(live, st.store.Snapshot())
		st.processPacket(2)
		if len(live) > window {
			if err := st.store.Release(live[0]); err != nil {
				panic(err)
			}
			live = live[1:]
		}
		xorp.Add(baseline)
		vm.Add(float64(st.store.VirtualBytes()) / mb)
		pm.Add(float64(st.store.PhysicalBytes()) / mb)
	}
	cdfSeries(f, "XORP", &xorp, 40)
	cdfSeries(f, "DEFINED-RB(PM)", &pm, 40)
	cdfSeries(f, "DEFINED-RB(VM)", &vm, 40)
	return f, nil
}
