package ospf

// BenchmarkSPF times one route-cache miss per path of runSPF, on router 0
// of an evaluation topology whose LSDB was filled by replaying the LSA
// stream a converged network floods (every router's full adjacency list,
// in origin order). Caching is off so every request reaches the miss path.
// A miss that builds allocates only its share of the daemon's table slabs:
// a spine, and a chunk for each chunk whose labels moved. delta-noop
// reuses the table and allocates nothing (TestSPFAllocs holds every case
// to its budget).

import (
	"runtime"
	"slices"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/topology"
)

// graphLSA is the LSA router v floods when all its links are up.
func graphLSA(g *topology.Graph, v int, seq uint64) *LSA {
	lsa := &LSA{Origin: msg.NodeID(v), Seq: seq}
	for _, nb := range g.Neighbors(v) { // sorted by id
		l, _ := g.LinkBetween(v, nb)
		lsa.Links = append(lsa.Links, Adj{To: msg.NodeID(nb), Cost: api.LinkCost(l.Delay)})
	}
	return lsa
}

// convergedDaemon boots router 0 of g and replays everyone else's LSA.
func convergedDaemon(g *topology.Graph) *Daemon {
	own := graphLSA(g, 0, 1)
	nbrs := make([]api.Neighbor, len(own.Links))
	for i, adj := range own.Links {
		nbrs[i] = api.Neighbor{ID: adj.To, Cost: adj.Cost}
	}
	d := New(Config{})
	d.SetRouteCaching(false)
	d.Init(0, nbrs)
	for v := 1; v < g.N; v++ {
		d.HandleMessage(lsaMsg(nbrs[0].ID, graphLSA(g, v, 1)))
	}
	return d
}

// spfCase is one path of runSPF set up for measurement: op is one miss
// on an n-destination table that writes chunks chunks (-1: builds no
// table at all).
type spfCase struct {
	name      string
	n, chunks int
	op        func()
}

// budget is what one miss of c may allocate on average.
func (c spfCase) budget() (allocs, bytes float64) {
	if c.chunks < 0 {
		return 0, 0
	}
	return slabBudget(c.n, 1, float64(c.chunks))
}

// slabBudget is what builds table builds over n destinations, writing
// chunks fresh chunks between them, may allocate: a share of a spine slab
// (spineSlabTables spines) per build and of a chunk slab (one table's
// worth) per chunk, each slab charged at what the allocator charges for it
// (size class and malloc header included).
func slabBudget(n int, builds, chunks float64) (allocs, bytes float64) {
	k := (n + chunkLen - 1) / chunkLen
	var spines []*chunk
	var cells []chunk
	_, spineSlab := perRun(1, func() { spines = make([]*chunk, spineSlabTables*k) })
	_, chunkSlab := perRun(1, func() { cells = make([]chunk, k) })
	runtime.KeepAlive(spines)
	runtime.KeepAlive(cells)
	allocs = builds/spineSlabTables + chunks/float64(k)
	bytes = builds*spineSlab/spineSlabTables + chunks*chunkSlab/float64(k)
	return allocs, bytes
}

// perRun is testing.AllocsPerRun, bytes included and not rounded down to
// whole allocations (a slab cut is a fraction of one): the mean
// allocations and bytes of one call of f over runs calls, after a warm-up
// call.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func spfCases(tb testing.TB) []spfCase {
	full := func(g *topology.Graph) func() {
		return convergedDaemon(g).runSPF // no note pending: from scratch
	}
	brite := topology.Brite(150, 2, 42)

	// delta is Mark → install x's LSA → runSPF → Rewind, after checking
	// once that the install takes the wanted path. x is the first router
	// (not 0, not a leaf) whose last link, withheld and then advertised,
	// shortens a route.
	delta := func(want spfPath, variant func(d *Daemon, withheld, whole *LSA) *LSA) func() {
		d := convergedDaemon(brite)
		d.JournalEnable()
		var log installLog
		for x := 1; x < brite.N; x++ {
			whole := graphLSA(brite, x, 2)
			if len(whole.Links) < 2 {
				continue
			}
			withheld := &LSA{Origin: whole.Origin, Seq: 2, Links: whole.Links[:len(whole.Links)-1]}
			mark := d.JournalMark()
			d.setLSDB(withheld.Origin, withheld)
			d.runSPF()
			d.setLSDB(whole.Origin, whole)
			took := checkedSPF(tb, d, &log, "probe")
			d.JournalRewind(mark)
			if took != pathDelta {
				continue
			}
			d.setLSDB(withheld.Origin, withheld)
			d.runSPF()
			lsa := variant(d, withheld, whole)
			mark = d.JournalMark()
			d.setLSDB(lsa.Origin, lsa)
			if took := checkedSPF(tb, d, &log, "measured install"); took != want {
				tb.Fatalf("measured install took the %v path, want %v", took, want)
			}
			d.JournalRewind(mark)
			return func() {
				mark := d.JournalMark()
				d.setLSDB(lsa.Origin, lsa)
				d.runSPF()
				d.JournalRewind(mark)
			}
		}
		tb.Fatal("no router's last link shortens a route")
		return nil
	}
	return []spfCase{
		// A repeated full run rebuilds the table it replaces: every chunk
		// is shared.
		{"full-n43", 43, 0, full(topology.Sprintlink())},
		{"full-n150", 150, 0, full(brite)},
		// The withheld link shortens routes inside one chunk.
		{"delta-insert-n150", 150, 1, delta(pathDelta, func(_ *Daemon, _, whole *LSA) *LSA { return whole })},
		// A link toward a router that does not advertise x back: no usable
		// edge changes, and the table is reused.
		{"delta-noop-n150", 150, -1, delta(pathReuse, func(d *Daemon, withheld, _ *LSA) *LSA {
			for z := msg.NodeID(1); ; z++ {
				if _, listed := d.costTo(d.lsaOf(z), withheld.Origin); !listed && z != withheld.Origin {
					links := append(slices.Clone(withheld.Links), Adj{To: z, Cost: 1})
					sortLinks(links)
					return &LSA{Origin: withheld.Origin, Seq: 3, Links: links}
				}
			}
		})},
	}
}

func BenchmarkSPF(b *testing.B) {
	for _, c := range spfCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.op()
			}
		})
	}
}

// TestSPFAllocs is the gate on the numbers BenchmarkSPF reports: a miss
// allocates its slab share of a spine and of the chunks it writes, and
// nothing else. A flat table, one allocation of every hop per miss, was
// 1 alloc and 1,280 B on the n150 cases.
func TestSPFAllocs(t *testing.T) {
	// A race-detector build does not fuse append(s, make(...)...), so under
	// it grown allocates a temporary each time a run regrows its scratch
	// within capacity, and the counts do not hold. Detected by that effect.
	scratch := make([]int32, 0, 8)
	if testing.AllocsPerRun(10, func() { scratch = grown(scratch[:0], 4) }) != 0 {
		t.Skip("grown allocates within capacity in this build (race detector on)")
	}
	for _, c := range spfCases(t) {
		allocs, bytes := perRun(120, c.op) // 120 misses: whole slabs at k = 3 and k = 10
		wantAllocs, wantBytes := c.budget()
		if allocs > wantAllocs || bytes > wantBytes {
			t.Errorf("%s: %.3f allocs, %.1f B per miss, budget %.3f allocs, %.1f B", c.name, allocs, bytes, wantAllocs, wantBytes)
		}
	}
}
