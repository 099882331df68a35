package ospf

// BenchmarkSPF times one route-cache miss per path of runSPF, on router 0
// of an evaluation topology whose LSDB was filled by replaying the LSA
// stream a converged network floods (every router's full adjacency list,
// in origin order). Caching is off so every request reaches the miss path.
// The only allocation a miss may make is the table it builds: 1 alloc/op on
// full and delta-insert, 0 on delta-noop, which reuses the table
// (TestSPFAllocs holds them to that).

import (
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

// spfCase is one path of runSPF set up for measurement: op is one miss,
// allocs what it may allocate.
type spfCase struct {
	name   string
	allocs float64
	op     func()
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
			took := checkedSPF(tb, d, "probe")
			d.JournalRewind(mark)
			if took != pathDelta {
				continue
			}
			d.setLSDB(withheld.Origin, withheld)
			d.runSPF()
			lsa := variant(d, withheld, whole)
			mark = d.JournalMark()
			d.setLSDB(lsa.Origin, lsa)
			if took := checkedSPF(tb, d, "measured install"); took != want {
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
		{"full-n43", 1, full(topology.Sprintlink())},
		{"full-n150", 1, full(brite)},
		{"delta-insert-n150", 1, delta(pathDelta, func(_ *Daemon, _, whole *LSA) *LSA { return whole })},
		// A link toward a router that does not advertise x back: no usable
		// edge changes.
		{"delta-noop-n150", 0, delta(pathReuse, func(d *Daemon, withheld, _ *LSA) *LSA {
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
// allocates its table and nothing else.
func TestSPFAllocs(t *testing.T) {
	// A race-detector build does not fuse append(s, make(...)...), so under
	// it grown allocates a temporary each time a run regrows its scratch
	// within capacity, and the counts do not hold. Detected by that effect.
	scratch := make([]int32, 0, 8)
	if testing.AllocsPerRun(10, func() { scratch = grown(scratch[:0], 4) }) != 0 {
		t.Skip("grown allocates within capacity in this build (race detector on)")
	}
	for _, c := range spfCases(t) {
		if got := testing.AllocsPerRun(100, c.op); got != c.allocs {
			t.Errorf("%s: %v allocs per miss, want %v", c.name, got, c.allocs)
		}
	}
}
