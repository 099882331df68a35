package eventq

import (
	"testing"

	"defined/internal/rng"
	"defined/internal/vtime"
)

// oracleEv is one event the fuzz oracle has issued: its label, its payload
// identity and the handle the queue returned for it. It stays in the list
// after it fires or is removed, so stale handles keep being exercised
// against whatever the queue has since put in their slots.
type oracleEv struct {
	at   vtime.Time
	seq  uint64
	kind Kind
	h    Handle
	live bool
}

// idCaller is a Caller that reports which oracle event it belongs to.
type idCaller struct {
	id    int
	fired *int
}

func (c *idCaller) Fire() { *c.fired = c.id }

// queueOracle drives a Queue and a plain list side by side. Explicit
// labels come from a counter of the oracle's own, as the simulator's do,
// placed far above the queue's so the two never collide; SetSeq hands
// labels back and forth between the spaces.
type queueOracle struct {
	t     *testing.T
	q     Queue
	evs   []oracleEv
	next  uint64   // what the queue's own counter must be
	ext   uint64   // the oracle's next explicit label
	spare []uint64 // reserved sequences not pushed under yet
	fired int      // id of the last payload run
}

// extBase is where the oracle's explicit labels start.
const extBase = 1 << 32

// min returns the index of the earliest live event, or -1.
func (o *queueOracle) min() int {
	best := -1
	for i := range o.evs {
		e := &o.evs[i]
		if !e.live {
			continue
		}
		if best < 0 || e.at < o.evs[best].at || (e.at == o.evs[best].at && e.seq < o.evs[best].seq) {
			best = i
		}
	}
	return best
}

func (o *queueOracle) liveCount() int {
	n := 0
	for i := range o.evs {
		if o.evs[i].live {
			n++
		}
	}
	return n
}

// takeSpare returns a reserved sequence, reserving a fresh block (and
// checking where the queue starts it) when none is left.
func (o *queueOracle) takeSpare(pick byte) uint64 {
	if len(o.spare) == 0 {
		o.reserve(uint64(pick%4) + 1)
	}
	i := int(pick) % len(o.spare)
	s := o.spare[i]
	o.spare = append(o.spare[:i], o.spare[i+1:]...)
	return s
}

func (o *queueOracle) reserve(n uint64) {
	for ; n > 0; n-- {
		o.spare = append(o.spare, extBase+o.ext)
		o.ext++
	}
}

// push schedules a new event of the payload k selects (a delivery, a Func
// or a pooled Caller), under the queue's own counter (explicit false) or a
// reserved sequence.
func (o *queueOracle) push(at vtime.Time, k byte, explicit bool, pick byte) {
	id := len(o.evs)
	seq := o.next
	if explicit {
		seq = o.takeSpare(pick)
	} else {
		o.next++
	}
	ev := oracleEv{at: at, seq: seq, kind: KindCall, live: true}
	var c Caller = &idCaller{id: id, fired: &o.fired}
	switch k % 3 {
	case 0:
		ev.kind = KindDeliver
		m := mk(uint64(id))
		if explicit {
			ev.h = o.q.PushDeliverSeq(at, seq, m)
		} else {
			ev.h = o.q.PushDeliver(at, m)
		}
	case 1:
		c = Func(func() { o.fired = id })
		fallthrough
	default:
		if explicit {
			ev.h = o.q.PushCallSeq(at, seq, c)
		} else {
			ev.h = o.q.PushCall(at, c)
		}
	}
	if ev.h.IsZero() {
		o.t.Fatalf("push returned the zero handle")
	}
	o.evs = append(o.evs, ev)
}

// checkEvent holds a popped or peeked event against oracle event i.
func (o *queueOracle) checkEvent(what string, ev Event, i int) {
	want := &o.evs[i]
	if ev.At != want.at || ev.Seq != want.seq || ev.Kind != want.kind {
		o.t.Fatalf("%s: got (at %d, seq %d, kind %d), want event %d (at %d, seq %d, kind %d)",
			what, ev.At, ev.Seq, ev.Kind, i, want.at, want.seq, want.kind)
	}
	got := -1
	switch ev.Kind {
	case KindDeliver:
		got = int(ev.Msg.ID.Seq)
	case KindCall:
		ev.Call.Fire()
		got = o.fired
	}
	if got != i {
		o.t.Fatalf("%s: payload of event %d came back for event %d", what, got, i)
	}
}

// pop removes the earliest event from both sides.
func (o *queueOracle) pop() {
	i := o.min()
	ev, ok := o.q.Pop()
	if ok != (i >= 0) {
		o.t.Fatalf("Pop ok = %v with %d live events", ok, o.liveCount())
	}
	if ok {
		o.checkEvent("Pop", ev, i)
		o.evs[i].live = false
	}
}

// agree checks every read-only view of the queue against the list.
func (o *queueOracle) agree() {
	n := o.liveCount()
	if o.q.Len() != n {
		o.t.Fatalf("Len = %d, want %d", o.q.Len(), n)
	}
	for i := range o.evs {
		if o.q.Live(o.evs[i].h) != o.evs[i].live {
			o.t.Fatalf("Live(event %d) = %v, want %v", i, o.q.Live(o.evs[i].h), o.evs[i].live)
		}
	}
	at, seq, ok := o.q.NextAtSeq()
	i := o.min()
	if ok != (i >= 0) {
		o.t.Fatalf("NextAtSeq ok = %v with %d live events", ok, n)
	}
	if !ok {
		if at != vtime.Never || o.q.NextAt() != vtime.Never {
			o.t.Fatalf("empty queue: NextAtSeq at = %d, NextAt = %d, want Never", at, o.q.NextAt())
		}
		return
	}
	if at != o.evs[i].at || seq != o.evs[i].seq || o.q.NextAt() != at {
		o.t.Fatalf("NextAtSeq = (%d, %d), NextAt = %d, want (%d, %d)", at, seq, o.q.NextAt(), o.evs[i].at, o.evs[i].seq)
	}
	ev, _ := o.q.Peek()
	o.checkEvent("Peek", ev, i)
}

// scanAgrees checks that Scan enumerates exactly the live events.
func (o *queueOracle) scanAgrees() {
	seen := map[[2]uint64]bool{}
	o.q.Scan(func(ev Event) { seen[[2]uint64{uint64(ev.At), ev.Seq}] = true })
	if len(seen) != o.liveCount() {
		o.t.Fatalf("Scan saw %d distinct events, want %d", len(seen), o.liveCount())
	}
	for i := range o.evs {
		if e := &o.evs[i]; e.live && !seen[[2]uint64{uint64(e.at), e.seq}] {
			o.t.Fatalf("Scan missed live event %d", i)
		}
	}
}

// runQueueProgram interprets prog as queue operations, three bytes each:
// opcode, then two operands.
func runQueueProgram(t *testing.T, prog []byte) {
	o := &queueOracle{t: t}
	for len(prog) >= 3 {
		op, a, b := prog[0], prog[1], prog[2]
		prog = prog[3:]
		// Times come from a small range so ties on the timestamp are common
		// and the sequence decides.
		at := vtime.Time(a % 16)
		switch op % 8 {
		case 0, 1:
			o.push(at, b, false, 0)
		case 2:
			o.push(at, b, true, b>>2)
		case 3:
			o.reserve(uint64(a%5) + 1)
		case 4:
			o.pop()
		default:
			if len(o.evs) == 0 {
				continue
			}
			// Any handle ever issued, stale ones included.
			e := &o.evs[int(a)%len(o.evs)]
			switch op % 8 {
			case 5:
				if got := o.q.Remove(e.h); got != e.live {
					t.Fatalf("Remove = %v, want %v", got, e.live)
				}
				e.live = false
			case 6:
				to := vtime.Time(b % 16)
				if got := o.q.Reschedule(e.h, to); got != e.live {
					t.Fatalf("Reschedule = %v, want %v", got, e.live)
				}
				if e.live {
					e.at = to
				}
			case 7:
				// The old label goes back to the spares, so a later push or
				// SetSeq can land exactly where this event used to be.
				to := o.takeSpare(b)
				if got := o.q.SetSeq(e.h, to); got != e.live {
					t.Fatalf("SetSeq = %v, want %v", got, e.live)
				}
				if e.live {
					o.spare = append(o.spare, e.seq)
					e.seq = to
				} else {
					o.spare = append(o.spare, to)
				}
			}
		}
		o.agree()
	}
	o.scanAgrees()
	for o.liveCount() > 0 {
		o.pop()
	}
	o.pop() // empty
	o.agree()
}

// FuzzQueueOps holds the queue to a list oracle over arbitrary programs of
// Push*/Push*Seq/Pop/Remove/Reschedule/SetSeq (with deliveries, Funcs and
// pooled Callers as payloads, and explicit labels reserved in blocks the
// way the simulator reserves a node's tick chain): pops come out in
// (at, seq) order with the payload they were pushed with, handles of fired
// or removed events stay dead however often their slot is reused, and Len,
// Live, NextAt, NextAtSeq, Peek and Scan agree with the list after every
// step. The seeds below run under plain `go test`.
func FuzzQueueOps(f *testing.F) {
	// Slot reuse through the free list: fill, remove from the middle, pop,
	// refill, then poke the stale handles.
	f.Add([]byte{
		0, 5, 0, 0, 3, 1, 0, 9, 2, 0, 3, 0, 0, 1, 1,
		5, 1, 0, 5, 3, 0, 4, 0, 0,
		0, 2, 2, 0, 2, 0, 1, 7, 1,
		5, 1, 0, 6, 3, 9, 7, 1, 0, 5, 0, 0, 6, 0, 2,
	})
	// Reserved block pushed out of order and late, around counter pushes.
	f.Add([]byte{
		3, 3, 0, 0, 4, 0, 2, 4, 13, 0, 4, 1, 2, 4, 0, 2, 4, 0, 0, 4, 2,
		4, 0, 0, 4, 0, 0, 4, 0, 0,
	})
	// SetSeq both ways on a deep tie, then Reschedule across it.
	f.Add([]byte{
		0, 7, 0, 0, 7, 1, 0, 7, 2, 0, 7, 0, 0, 7, 1, 0, 7, 2, 0, 7, 0,
		7, 0, 0, 7, 6, 3, 7, 3, 1, 6, 2, 0, 6, 4, 15, 4, 0, 0, 7, 0, 0,
	})
	// Two longer pseudo-random programs.
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		prog := make([]byte, 3*400)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		f.Add(prog)
	}
	f.Fuzz(runQueueProgram)
}
