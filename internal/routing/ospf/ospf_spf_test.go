package ospf

// Exactness tests for the incremental SPF: whatever path runSPF takes —
// same-table reuse, delta continuation, full heap run — the table must
// equal, element for element and in length, what the O(n²)
// linear-extraction Dijkstra this package used to run builds from scratch.
// That routine survives here as the oracle. Every build must also share
// each chunk of the installed table whose content it repeats, and no table
// may change once installed.

import (
	"slices"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
)

// oracleSPF is the pre-heap runSPF miss path, verbatim: linear extraction
// of the smallest (cost, id), per-edge bidirectional check by linear scans
// of both endpoints' LSAs, first-hop ties to the smaller id.
func (d *Daemon) oracleSPF() []hop {
	s := d.st
	advertises := func(l *LSA, to msg.NodeID) bool {
		for _, adj := range l.Links {
			if adj.To == to {
				return true
			}
		}
		return false
	}
	bidirectional := func(a, b msg.NodeID) bool {
		la, lb := d.lsaOf(a), d.lsaOf(b)
		return la != nil && advertises(la, b) && lb != nil && advertises(lb, a)
	}
	n := d.rel(d.self) + 1
	if len(s.lsdb) > n {
		n = len(s.lsdb)
	}
	for _, lsa := range s.lsdb {
		if lsa == nil {
			continue
		}
		for _, adj := range lsa.Links {
			if r := d.rel(adj.To) + 1; r > n {
				n = r
			}
		}
	}
	dist := make([]uint32, n)
	via := make([]msg.NodeID, n)
	visited := make([]bool, n)
	for i := 0; i < n; i++ {
		dist[i] = inf
		via[i] = msg.None
	}
	dist[d.rel(d.self)] = 0
	for {
		best, bestCost := -1, inf
		for i := 0; i < n; i++ {
			if !visited[i] && dist[i] < bestCost {
				best, bestCost = i, dist[i]
			}
		}
		if best < 0 {
			break
		}
		visited[best] = true
		if best >= len(s.lsdb) || s.lsdb[best] == nil {
			continue
		}
		bestID := d.base + msg.NodeID(best)
		for _, adj := range s.lsdb[best].Links {
			to := d.rel(adj.To)
			if to < 0 || !bidirectional(bestID, adj.To) {
				continue
			}
			nc := bestCost + adj.Cost
			firstHop := via[best]
			if bestID == d.self {
				firstHop = adj.To
			}
			if old := dist[to]; nc < old || (nc == old && firstHop < via[to]) {
				dist[to] = nc
				via[to] = firstHop
			}
		}
	}
	table := make([]hop, n)
	for i := 0; i < n; i++ {
		if i == d.rel(d.self) || dist[i] == inf {
			table[i].NextHop = msg.None
			continue
		}
		table[i] = hop{NextHop: via[i], Cost: dist[i]}
	}
	return table
}

// spfPath names the path runSPF's miss branch takes for the pending note.
type spfPath int

const (
	pathFull  spfPath = iota // spfDelta declined
	pathReuse                // same immutable table re-stamped
	pathDelta                // continuation from the old labels
)

func (p spfPath) String() string { return [...]string{"full", "reuse", "delta"}[p] }

// flat is t's hops in destination order, t.size() of them.
func (t table) flat() []hop {
	out := make([]hop, t.size())
	for i := range out {
		out[i] = t.at(i)
	}
	return out
}

// installLog is what checkedSPF saw installed: each distinct table (by
// spine) with its flat content at the time.
type installLog struct {
	tables []table
	hops   [][]hop
}

// hold holds every table logged so far to its content at install — a
// change means a build, a rewind or a cache hit wrote into a spine or
// chunk that was already shared — and then logs t if it is new.
func (l *installLog) hold(tb testing.TB, t table, what string) {
	tb.Helper()
	seen := false
	for i, old := range l.tables {
		seen = seen || &old[0] == &t[0]
		if now := old.flat(); !slices.Equal(now, l.hops[i]) {
			tb.Fatalf("%s: a table installed earlier changed\n was %v\n now %v", what, l.hops[i], now)
		}
	}
	if !seen {
		l.tables = append(l.tables, t)
		l.hops = append(l.hops, t.flat())
	}
}

// checkedSPF runs one SPF request and holds its result to the oracle. It
// first asks spfDelta (which touches scratch and fresh slab cells only)
// what it would answer for the pending note, so the path taken is
// observable and the delta result is checked on its own, not only through
// runSPF. A request that builds must share every chunk of the table it
// replaces whose content it repeats, and log holds every table installed
// so far to its content at install.
func checkedSPF(t testing.TB, d *Daemon, log *installLog, what string) spfPath {
	t.Helper()
	want := d.oracleSPF()
	prev, hits := d.st.table, d.cache.Stats().Hits
	path := pathFull
	if got := d.spfDelta(d.delta); got != nil {
		path = pathDelta
		if len(got) > 0 && len(prev) > 0 && &got[0] == &prev[0] {
			path = pathReuse
		}
		if !slices.Equal(got.flat(), want) {
			t.Fatalf("%s: spfDelta (%v) diverged from the from-scratch table\n got  %v\n want %v", what, path, got.flat(), want)
		}
	}
	d.runSPF()
	cur := d.st.table
	if !slices.Equal(cur.flat(), want) {
		t.Fatalf("%s: runSPF (%v) diverged from the from-scratch table\n got  %v\n want %v", what, path, cur.flat(), want)
	}
	if d.st.tableEpoch != d.st.epoch {
		t.Fatalf("%s: table not stamped current", what)
	}
	// A new spine that is no cache hit was built against prev.
	if &cur[0] != &prev[0] && d.cache.Stats().Hits == hits {
		for k := range min(len(cur), len(prev)) {
			if cur[k] != prev[k] && *cur[k] == *prev[k] {
				t.Fatalf("%s: runSPF (%v) wrote chunk %d afresh with the content of the one it replaced", what, path, k)
			}
		}
	}
	log.hold(t, cur, what)
	return path
}

// lsaFor builds origin's LSA from (to, cost) pairs of domain-relative ids
// (-1 is a foreign-domain router just below the base), sorted by neighbor.
func lsaFor(d *Daemon, seq *uint64, origin int, pairs ...int) *LSA {
	*seq++
	lsa := &LSA{Origin: d.base + msg.NodeID(origin), Seq: *seq}
	for i := 0; i+1 < len(pairs); i += 2 {
		lsa.Links = append(lsa.Links, Adj{To: d.base + msg.NodeID(pairs[i]), Cost: uint32(pairs[i+1])})
	}
	sortLinks(lsa.Links)
	return lsa
}

func sortLinks(l []Adj) {
	slices.SortFunc(l, func(a, b Adj) int { return int(a.To) - int(b.To) })
}

// install stores an LSA the way onLSA does, leaving the SPF to the caller.
func install(d *Daemon, seq *uint64, origin int, pairs ...int) {
	lsa := lsaFor(d, seq, origin, pairs...)
	d.setLSDB(lsa.Origin, lsa)
}

// deltaRig is router 0 of a domain starting at base, neighbors 1 (cost 1)
// and 2 (cost 2), journaling on; with caching off every request reaches
// the miss path.
func deltaRig(base msg.NodeID, caching bool) *Daemon {
	d := New(Config{DomainBase: base})
	d.SetRouteCaching(caching)
	d.Init(base, []api.Neighbor{{ID: base + 1, Cost: 1}, {ID: base + 2, Cost: 2}})
	d.JournalEnable()
	return d
}

// diamond converges the rig on five routers with an equal-cost pair of
// paths (domain-relative ids, cost in brackets):
//
//	0-1 (1)  0-2 (2)  1-3 (2)  2-3 (1)  3-4 (1)
//
// so 3 costs 3 through either first hop, the tie goes to 1, and 4 inherits
// it. The last install is a first-time origin (old == nil) whose links fit
// the table, i.e. already a delta continuation.
func diamond(t testing.TB, d *Daemon, log *installLog, seq *uint64) {
	t.Helper()
	install(d, seq, 1, 0, 1, 3, 2)
	checkedSPF(t, d, log, "boot 1")
	install(d, seq, 2, 0, 2, 3, 1)
	checkedSPF(t, d, log, "boot 2")
	install(d, seq, 3, 1, 2, 2, 1, 4, 1)
	checkedSPF(t, d, log, "boot 3")
	install(d, seq, 4, 3, 1)
	if got := checkedSPF(t, d, log, "boot 4"); got != pathDelta {
		t.Fatalf("first install of a leaf took the %v path, want delta", got)
	}
	if r := d.st.table.at(4); r.Cost != 4 || r.NextHop != d.base+1 {
		t.Fatalf("diamond: route to 4 = %+v, want cost 4 via %d", r, d.base+1)
	}
}

// TestSPFDeltaClasses is the seed corpus in table form: single-origin
// changes on the converged diamond, each with the path it must take. An
// install is {origin, to, cost, to, cost, ...}.
func TestSPFDeltaClasses(t *testing.T) {
	cases := []struct {
		name string
		prep [][]int // installs, each followed by an SPF
		step []int   // the install under test
		want spfPath
	}{
		{"unidirectional advert", nil, []int{4, 1, 1, 3, 1}, pathReuse},
		{"foreign-domain advert", nil, []int{4, -1, 1, 3, 1}, pathReuse},
		{"usable insert that beats no label", [][]int{{4, 2, 9, 3, 1}}, []int{2, 0, 2, 3, 1, 4, 9}, pathReuse},
		{"usable insert that shortens a path", [][]int{{4, 1, 1, 3, 1}}, []int{1, 0, 1, 3, 2, 4, 1}, pathDelta},
		{"cheapened edge", nil, []int{1, 0, 1, 3, 1}, pathDelta},
		// 3 and 4 keep their costs but must both move from first hop 2 to
		// 1, though only 3 is an endpoint of the changed edge.
		{"first-hop-only improvement propagates", [][]int{{1, 0, 1, 3, 3}}, []int{1, 0, 1, 3, 2}, pathDelta},
		{"withdrawn leaf: on-DAG removal", nil, []int{4}, pathFull},
		{"worsened on-DAG edge", nil, []int{1, 0, 1, 3, 9}, pathFull},
		{"worsened off-DAG directions", nil, []int{3, 1, 9, 2, 9, 4, 1}, pathReuse},
		{"removed off-DAG edge", [][]int{{1, 0, 1, 2, 5, 3, 2}, {2, 0, 2, 1, 5, 3, 1}}, []int{1, 0, 1, 3, 2}, pathReuse},
		{"self-LSA loses an adjacency", nil, []int{0, 1, 1}, pathFull},
		{"self-LSA regains an adjacency", [][]int{{0, 1, 1}}, []int{0, 1, 1, 2, 2}, pathDelta},
		{"universe grows", nil, []int{4, 3, 1, 7, 1}, pathFull},
		{"self-loop advert", nil, []int{3, 1, 2, 2, 1, 3, 1, 4, 1}, pathFull},
	}
	for _, base := range []msg.NodeID{0, 100} {
		for _, c := range cases {
			d := deltaRig(base, false)
			var seq uint64
			var log installLog
			diamond(t, d, &log, &seq)
			for _, p := range c.prep {
				install(d, &seq, p[0], p[1:]...)
				checkedSPF(t, d, &log, c.name+" (prep)")
			}
			install(d, &seq, c.step[0], c.step[1:]...)
			if got := checkedSPF(t, d, &log, c.name); got != c.want {
				t.Errorf("base %d, %s: took the %v path, want %v", base, c.name, got, c.want)
			}
		}
	}
}

// TestSPFDeltaGuard covers the ways the note can fail to describe the
// table: two installs between SPFs, a rewind between install and SPF, and
// an LSA that breaks the sorted-Links invariant.
func TestSPFDeltaGuard(t *testing.T) {
	for _, caching := range []bool{false, true} {
		d := deltaRig(100, caching)
		var seq uint64
		var log installLog
		diamond(t, d, &log, &seq)

		install(d, &seq, 4, 1, 1, 3, 1)
		install(d, &seq, 1, 0, 1, 3, 2, 4, 1)
		if got := checkedSPF(t, d, &log, "two installs"); got != pathFull {
			t.Errorf("two installs between SPFs took the %v path, want full", got)
		}

		// Mark → install → SPF → Rewind → different install: the second
		// note is relative to the restored (table, tableEpoch), so the
		// delta path stays available and exact.
		mark := d.JournalMark()
		install(d, &seq, 1, 0, 1, 3, 1, 4, 1)
		checkedSPF(t, d, &log, "speculative install")
		d.JournalRewind(mark)
		install(d, &seq, 3, 1, 2, 2, 1, 4, 2)
		checkedSPF(t, d, &log, "install after rewind")

		// Mark → install → Rewind with the SPF never run: the note is
		// stale. Its after-epoch no longer matches, so it must not be
		// applied to the next request.
		mark = d.JournalMark()
		install(d, &seq, 4, 3, 1)
		d.JournalRewind(mark)
		if got := checkedSPF(t, d, &log, "stale note"); !caching && got != pathFull {
			t.Errorf("stale note took the %v path, want full", got)
		}

		// A hand-built LSA with unsorted links: full runs from here on,
		// membership by linear scan, same tables as ever.
		seq++
		bad := &LSA{Origin: 104, Seq: seq, Links: []Adj{{To: 103, Cost: 1}, {To: 101, Cost: 1}}}
		d.setLSDB(104, bad)
		if got := checkedSPF(t, d, &log, "unsorted install"); got != pathFull {
			t.Errorf("unsorted LSA took the %v path, want full", got)
		}
		install(d, &seq, 1, 0, 1, 3, 2)
		if got := checkedSPF(t, d, &log, "after unsorted install"); got != pathFull {
			t.Errorf("daemon trusted Links order again: %v path", got)
		}
	}
}

// fuzzBytes hands out the fuzz input one byte at a time, zeros once spent.
type fuzzBytes struct{ b []byte }

func (f *fuzzBytes) next() int {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return int(v)
}

// FuzzSPFDelta drives one daemon through random single-origin installs,
// withdrawals and cost changes — costs from {1, 2} so equal-cost first-hop
// ties are the norm, a non-zero domain base, routers spread over two
// chunks, foreign-domain, out-of-table and unidirectional adverts,
// self-LSA changes, two installs between SPFs, and Mark → install → Rewind
// → different install — holding every SPF to the from-scratch oracle,
// every build to maximal chunk sharing and every table it installed to its
// content at install.
func FuzzSPFDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0x3f, 0x15, 1, 1, 0x2a, 0, 2, 2, 0x11, 0xff, 3, 3, 0, 0x55, 4, 0x0f, 0xf0})
	f.Add([]byte{0x1e, 0xff, 0xaa, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 7, 1, 1, 2, 2, 7, 3, 3, 4, 4})
	f.Add([]byte{0x35, 0x81, 0x42, 6, 1, 3, 3, 2, 9, 9, 5, 1, 4, 4, 0, 0, 7, 5, 5, 1, 1, 6, 2, 2, 8, 8})
	f.Add([]byte{0xc2, 0x6d, 0x00, 1, 0xff, 0xff, 2, 0xff, 0xff, 3, 0xff, 0xff, 4, 0xff, 0xff, 5, 0xff, 0xff, 4, 1, 5, 2})
	f.Add([]byte{0x8f, 0xff, 0xaa, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 7, 1, 1, 2, 2, 7, 3, 3, 4, 4, 0, 6, 0xc0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data}
		cfg := in.next()
		base := msg.NodeID(100 * (cfg & 1))
		n := 5 + cfg>>2&3 // routers in the domain
		self := cfg >> 4 % n
		// Bit 7 puts router i at domain-relative id 3i instead of i, so its
		// tables span two chunks, the ids between them unreachable.
		stride := 1 + 2*(cfg>>7)
		id := func(i int) msg.NodeID { return base + msg.NodeID(i*stride) }
		d := New(Config{DomainBase: base})
		d.SetRouteCaching(cfg&2 != 0)
		var nbrs []api.Neighbor
		for i, mask, costs := 0, in.next(), in.next(); i < n; i++ {
			if i != self && mask>>i&1 != 0 {
				nbrs = append(nbrs, api.Neighbor{ID: id(i), Cost: uint32(1 + costs>>i&1)})
			}
		}
		d.Init(id(self), nbrs)
		d.JournalEnable()
		var seq uint64
		var log installLog

		// randomLSA mostly mirrors the routers that already advertise
		// origin (so links come up bidirectional), flipped by a sparse
		// random mask; bit 7 of the flips adds a foreign-domain target and
		// bit 6 one past the domain.
		randomLSA := func(origin int) *LSA {
			mask := 0
			for i := 0; i < n; i++ {
				if l := d.lsaOf(id(i)); l != nil && i != origin {
					if _, ok := d.costTo(l, id(origin)); ok {
						mask |= 1 << i
					}
				}
			}
			flips, costs := in.next(), in.next()
			mask ^= flips & in.next()
			var pairs []int
			if flips&0x80 != 0 {
				pairs = append(pairs, -1, 1)
			}
			for i := 0; i < n; i++ {
				if mask>>i&1 != 0 {
					pairs = append(pairs, i*stride, 1+costs>>i&1)
				}
			}
			if flips&0x40 != 0 {
				pairs = append(pairs, (n+costs&1)*stride, 1)
			}
			return lsaFor(d, &seq, origin*stride, pairs...)
		}
		set := func(l *LSA) { d.setLSDB(l.Origin, l) }

		for op := 0; op < 48 && len(in.b) > 0; op++ {
			kind, origin := in.next(), in.next()%n
			switch kind % 8 {
			default:
				set(randomLSA(origin))
			case 4: // one link's cost flips between 1 and 2
				if cur := d.lsaOf(id(origin)); cur != nil && len(cur.Links) > 0 {
					seq++
					l := &LSA{Origin: cur.Origin, Seq: seq, Links: slices.Clone(cur.Links)}
					k := in.next() % len(l.Links)
					l.Links[k].Cost = 3 - min(l.Links[k].Cost, 2)
					set(l)
				}
			case 5: // withdrawal
				set(lsaFor(d, &seq, origin*stride))
			case 6: // two installs, one SPF
				set(randomLSA(origin))
				set(randomLSA(in.next() % n))
			case 7: // speculate, roll back, take another branch
				mark := d.JournalMark()
				set(randomLSA(origin))
				if kind&8 != 0 {
					checkedSPF(t, d, &log, "speculative")
				}
				d.JournalRewind(mark)
				if kind&16 != 0 {
					set(randomLSA(in.next() % n))
				}
			}
			checkedSPF(t, d, &log, "op")
		}
	})
}
