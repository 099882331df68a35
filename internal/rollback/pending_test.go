package rollback

import (
	"testing"

	"defined/internal/history"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/rng"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// refInsertPending is the full-pass routine insertPending's bounded passes
// replaced — the forward raise, then a backward pass over the whole buffer
// — kept as the oracle.
func refInsertPending(pend []pendingArrival, p pendingArrival, pos int) []pendingArrival {
	pend = append(pend, pendingArrival{})
	copy(pend[pos+1:], pend[pos:])
	pend[pos] = p
	run := p.due
	for j := pos + 1; j < len(pend); j++ {
		q := &pend[j]
		if q.due >= run {
			break
		}
		nd := run
		if nd > q.capAt {
			nd = q.capAt
		}
		if nd > q.due {
			q.due = nd
		}
		run = q.due
	}
	for k := len(pend) - 2; k >= 0; k-- {
		if pend[k].due > pend[k+1].due {
			pend[k].due = pend[k+1].due
		}
	}
	return pend
}

// refSpentThrough is the unconditional scan spentThrough skips while the
// clock is below its lower bound.
func refSpentThrough(pend []pendingArrival, now vtime.Time) int {
	last := -1
	for j := range pend {
		if !pend[j].capAt.After(now) {
			last = j
		}
	}
	return last
}

// The bounded due passes and the lower-bound-gated budget scan must leave
// the pending buffer exactly as the full passes do, cell for cell, over
// random programs of pushes, flushes, annihilations and overflows — with
// budgets tight enough against the holds that caps clip the raise chains,
// which is the only way the backward pass has anything to do.
func TestPushPendingMatchesReference(t *testing.T) {
	const (
		programs = 12_000
		maxModel = 4 // the model's maxPending: small, so overflow is common
	)
	r := rng.New(16)
	var raised, lowered, spent, overflowed, skipped int
	for prog := 0; prog < programs; prog++ {
		pd := &pending{}
		var ref []pendingArrival
		budget := vtime.Duration(1+r.Intn(40)) * vtime.Millisecond
		now := vtime.Time(r.Intn(1000))
		var seq uint64
		for op := 0; op < 60; op++ {
			now = now.Add(vtime.Duration(r.Intn(int(budget) / 4)))
			switch r.Intn(8) {
			default: // push, as push prepares it
				pos := r.Intn(len(ref) + 1)
				capAt := now.Add(budget)
				due := now.Add(vtime.Duration(r.Intn(int(budget) + 1)))
				if pos > 0 && ref[pos-1].due > due {
					due = ref[pos-1].due
				}
				if due > capAt {
					due = capAt
				}
				seq++
				p := pendingArrival{capAt: capAt, due: due, seq: seq}
				ref = refInsertPending(ref, p, pos)
				pd.insertPending(&p, pos)
				// Tally what the program exercised: a successor raised, and
				// the new entry lowered again because a cap clipped one.
				if pos+1 < len(ref) && ref[pos+1].due >= p.due && ref[pos+1].due > now.Add(budget/2) {
					raised++
				}
				if ref[pos].due < p.due {
					lowered++
				}
			case 0, 1: // flush: the spent budgets, then everything due
				lb := pd.capLB
				force, got := refSpentThrough(ref, now), pd.spentThrough(now)
				if got != force {
					t.Fatalf("program %d op %d: spentThrough = %d, full scan %d", prog, op, got, force)
				}
				if now.Before(lb) {
					skipped++
				}
				if force >= 0 {
					spent++
				} else if len(ref) > maxModel {
					force = 0
					overflowed++
				}
				last := force
				for last+1 < len(ref) && !ref[last+1].due.After(now) {
					last++
				}
				ref = ref[:copy(ref, ref[last+1:])]
				pd.buf.DropFront(last + 1)
			case 2: // annihilate
				if len(ref) == 0 {
					continue
				}
				i := r.Intn(len(ref))
				ref = append(ref[:i], ref[i+1:]...)
				pd.buf.Remove(i)
			}
			if pd.buf.Len() != len(ref) {
				t.Fatalf("program %d op %d: %d cells, reference has %d", prog, op, pd.buf.Len(), len(ref))
			}
			for i := range ref {
				if c := pd.buf.At(i); *c != ref[i] {
					t.Fatalf("program %d op %d cell %d: %+v, reference %+v", prog, op, i, *c, ref[i])
				} else if c.capAt < pd.capLB {
					t.Fatalf("program %d op %d cell %d: capAt %v under the lower bound %v", prog, op, i, c.capAt, pd.capLB)
				}
				if i > 0 && ref[i-1].due > ref[i].due || ref[i].due > ref[i].capAt {
					t.Fatalf("program %d op %d cell %d: due invariant broken in the reference itself", prog, op, i)
				}
			}
		}
	}
	if min(raised, lowered, spent, overflowed, skipped) < programs/100 {
		t.Fatalf("programs too tame: %d raised successors, %d entries lowered under a clipped successor, %d spent-budget flushes, %d overflows, %d skipped scans",
			raised, lowered, spent, overflowed, skipped)
	}
}

// deferBench is node 1 of a two-node line with only its deferral buffer
// and an empty history window — no engine — holding depth deferred message
// arrivals, d_i 1 ms apart and all due 50 ms out, so nothing flushes while
// the clock stands still.
type deferBench struct {
	pd    *pending
	win   *history.Window
	depth int
	step  int
	ring  []msg.Message // arrivals cycle through these; an entry is long gone when its slot comes round
}

func newDeferBench(depth int) *deferBench {
	g := topology.Line(2, 10*vtime.Millisecond)
	cmp := ordering.Optimized()
	defaults, _ := ResolveEngine(EngineSpec{})
	pd := &pending{cmp: cmp, slack: defaults.DeferSlack.V(), max: defaults.DeferMax.V(), budget: defaults.DeferMax.V(),
		lane: netsim.New(g, netsim.Config{Seed: 1}).LaneFor(1), stats: &Stats{}, flushFn: func() {}}
	b := &deferBench{pd: pd, win: history.New(cmp), depth: depth, ring: make([]msg.Message, 4*depth)}
	for b.step < depth {
		m := b.arrival(b.step)
		b.pd.buf.Push(pendingArrival{
			cell:  *cellOf(m, 0),
			capAt: vtime.Time(100 * vtime.Millisecond),
			due:   vtime.Time(50 * vtime.Millisecond),
		})
		b.step++
	}
	return b
}

// arrival builds the i-th arrival, with d_i = i ms.
func (b *deferBench) arrival(i int) *msg.Message {
	m := &b.ring[b.step%len(b.ring)]
	*m = *mkMsgFrom(0, vtime.Duration(i+1)*vtime.Millisecond, uint64(b.step), 0)
	return m
}

// push defers one arrival through decide (ranked scan, insertion, due
// passes, flush re-arm) and annihilates the front entry to hold the depth.
// d_i rises with the arrival count but runs backwards inside blocks of
// depth/2, so an arrival sorts before the block-mates that beat it here:
// the scan passes depth/4 cells on average, as a flood wave's stragglers do.
func (b *deferBench) push() bool {
	front := b.pd.buf.At(0).cell.Msg.ID
	blk := b.depth / 2
	m := b.arrival(b.step/blk*blk + blk - 1 - b.step%blk)
	b.step++
	c := entryOf(m, 0).Cell(b.pd.cmp)
	held, flush := b.pd.decide(&c, ordering.KeyOf(m), b.win, &lookahead{})
	return b.pd.annihilate(front) && held && !flush
}

// BenchmarkDeferPush measures one arrival's pass through the deferral
// buffer at a held depth.
func BenchmarkDeferPush(b *testing.B) {
	for _, bc := range []struct {
		name  string
		depth int
	}{{"depth4", 4}, {"depth48", 48}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			db := newDeferBench(bc.depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !db.push() {
					b.Fatal("arrival was not deferred")
				}
			}
		})
	}
}

// The deferral buffer's steady state allocates nothing: the buffer's
// storage is reused across insertions and removals, and the flush
// event is re-armed in place.
func TestDeferPushAllocFree(t *testing.T) {
	db := newDeferBench(48)
	db.push() // the first push arms the flush event and grows the buffer once
	avg := testing.AllocsPerRun(1000, func() {
		if !db.push() {
			t.Fatal("arrival was not deferred")
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state deferral push allocates %.1f allocs/op, want 0", avg)
	}
	if got := db.pd.buf.Len(); got != 48 {
		t.Fatalf("buffer depth drifted to %d", got)
	}
}
