package ospf

// The per-delivery cells of this package on a budget: their sizes, and the
// rule that building an undo record never allocates — journal on or off.

import (
	"testing"
	"unsafe"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// recSize is the size of one record of l, whatever its type has become.
func recSize[E any](l *journal.Log[E]) uintptr {
	var e E
	return unsafe.Sizeof(e)
}

func TestCellSizes(t *testing.T) {
	d := New(Config{})
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"undoRec: tag+flag+slot, one integer, one pointer — one to two per delivery, kept until settled", recSize(d.j), 24},
		{"tables side record: the old table's spine header, one per table install", recSize(d.tables), 24},
		{"holds side record: the old hold queue's slice header (FloodHolddown only)", recSize(d.holds), 24},
		{"hop: (NextHop, Cost) — the destination is the cell's index, not stored", unsafe.Sizeof(hop{}), 8},
		{"chunk: 16 hops, the unit a build writes or shares — 64 tables cached per router", unsafe.Sizeof(chunk{}), 128},
	} {
		if c.got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// handlerProgram drives router 300 of the line 300–301–302 through one
// round of every handler kind: an LSA install with changed links (301's
// cost toward 302 alternates 1 ↔ 3 from run to run, so 300's route to 302
// moves and a table is built or fetched), a refresh with identical links,
// a hello, and a timer batch on the hello grid. Everything it delivers is
// built up front; ids past 255 keep small-integer boxing from hiding an
// allocation.
type handlerProgram struct {
	d     *Daemon
	run   int
	lsas  [][2]*LSA // per run: the changed install, then its refresh
	lsa   *msg.Message
	hello *msg.Message
}

func newHandlerProgram(caching bool, runs int) *handlerProgram {
	const self, mid, far = 300, 301, 302
	d := New(Config{DomainBase: self})
	d.SetRouteCaching(caching)
	d.Init(self, []api.Neighbor{{ID: mid, Cost: 1}})
	p := &handlerProgram{
		d:     d,
		lsa:   &msg.Message{From: mid, To: self, Kind: msg.KindApp},
		hello: &msg.Message{From: mid, To: self, Kind: msg.KindApp, Payload: hello{From: mid}},
	}
	links := [2][]Adj{
		{{To: self, Cost: 1}, {To: far, Cost: 1}},
		{{To: self, Cost: 1}, {To: far, Cost: 3}},
	}
	for r := 0; r < runs; r++ {
		seq := uint64(10 + 2*r)
		p.lsas = append(p.lsas, [2]*LSA{
			{Origin: mid, Seq: seq, Links: links[r%2]},
			{Origin: mid, Seq: seq + 1, Links: links[r%2]},
		})
	}
	p.lsa.Payload = &LSA{Origin: far, Seq: 1, Links: []Adj{{To: mid, Cost: 1}}}
	d.HandleMessage(p.lsa)
	return p
}

// step runs one round and reports how many tables it built and how many
// chunks those wrote (with caching off a table never comes from anywhere
// else, so every spine change is a build, and every chunk it does not
// share with the table before it was written).
func (p *handlerProgram) step() (builds, chunks int) {
	d := p.d
	for _, lsa := range p.lsas[p.run] {
		before := d.st.table
		p.lsa.Payload = lsa
		d.HandleMessage(p.lsa)
		if after := d.st.table; &after[0] != &before[0] {
			builds++
			for k := range after {
				if k >= len(before) || after[k] != before[k] {
					chunks++
				}
			}
		}
	}
	d.HandleMessage(p.hello)
	p.run++
	d.HandleTimer(vtime.Time(p.run) * vtime.Time(vtime.Second))
	if d.st.table.at(2).Cost != 2+2*uint32((p.run-1)%2) {
		panic("route to the far router did not follow the installed cost")
	}
	return builds, chunks
}

// TestRecordsNeverAllocate: over the handler program, allocations are the
// table builds' slab shares (a spine each, a chunk per moved label's chunk)
// and nothing else — with the journal disabled (lockstep, baseline, FK) and
// with it enabled once its slices are warm (MI). The budget is exact, so a
// record constructor that boxes (a slice header in an interface field)
// allocates past it on every call, journal on or off, and fails all four
// rows.
func TestRecordsNeverAllocate(t *testing.T) {
	scratch := make([]int32, 0, 8) // TestSPFAllocs' race-build detector
	if testing.AllocsPerRun(10, func() { scratch = grown(scratch[:0], 4) }) != 0 {
		t.Skip("grown allocates within capacity in this build (race detector on)")
	}
	const warm, runs = 8, 100
	for _, c := range []struct {
		name             string
		caching, journal bool
	}{
		{"cache on, journal off", true, false},
		{"cache on, journal warm", true, true},
		{"cache off, journal off", false, false},
		{"cache off, journal warm", false, true},
	} {
		p := newHandlerProgram(c.caching, warm+runs+1)
		if c.journal {
			p.d.JournalEnable()
		}
		builds, chunks := 0, 0
		for i := 0; i < warm; i++ {
			builds, chunks = p.step()
			p.d.JournalCompact(p.d.JournalMark())
		}
		var wantAllocs, wantBytes float64 // both contents memoized during warm-up
		if !c.caching {
			if builds == 0 || chunks == 0 {
				t.Fatalf("%s: the program builds no table or moves no label", c.name)
			}
			wantAllocs, wantBytes = slabBudget(p.d.st.table.size(), float64(builds), float64(chunks))
		}
		allocs, bytes := perRun(runs, func() {
			p.step()
			p.d.JournalCompact(p.d.JournalMark())
		})
		if allocs > wantAllocs || bytes > wantBytes {
			t.Errorf("%s: %.3f allocs, %.1f B per round, want at most %.3f, %.1f B (%d table builds writing %d chunks)",
				c.name, allocs, bytes, wantAllocs, wantBytes, builds, chunks)
		}
		if c.journal && p.d.j.Len()+p.d.tables.Len()+p.d.holds.Len() != 0 {
			t.Errorf("%s: journals not empty after compaction to the head", c.name)
		}
	}
}
