package eventq

import (
	"testing"
	"testing/quick"

	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/vtime"
)

// mk builds a deliver event payload with a recognizable sequence number.
func mk(seq uint64) *msg.Message {
	return &msg.Message{ID: msg.ID{Sender: 0, Seq: seq}}
}

func TestOrderedPop(t *testing.T) {
	var q Queue
	q.PushDeliver(30, mk(3))
	q.PushDeliver(10, mk(1))
	q.PushDeliver(20, mk(2))
	for i, want := range []uint64{1, 2, 3} {
		ev, ok := q.Pop()
		if !ok || ev.Kind != KindDeliver || ev.Msg.ID.Seq != want {
			t.Fatalf("pop %d: got %+v ok=%v, want msg seq %d", i, ev, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue should report empty")
	}
}

// A plain callback rides the Call kind through the Func adapter.
func TestFnEvents(t *testing.T) {
	var q Queue
	fired := 0
	q.PushCall(5, Func(func() { fired++ }))
	ev, ok := q.Pop()
	if !ok || ev.Kind != KindCall || ev.Call == nil {
		t.Fatalf("got %+v ok=%v, want call event", ev, ok)
	}
	ev.Call.Fire()
	if fired != 1 {
		t.Fatal("fn payload should round-trip")
	}
}

func TestFIFOWithinSameTimestamp(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.PushDeliver(5, mk(uint64(i)))
	}
	for i := 0; i < 100; i++ {
		ev, _ := q.Pop()
		if ev.Msg.ID.Seq != uint64(i) {
			t.Fatalf("tie-break violated: got %d at position %d", ev.Msg.ID.Seq, i)
		}
	}
}

// Seq tie-break stability must survive interleaved removals: freeing and
// reusing slots mid-stream must not disturb insertion order among equal
// timestamps.
func TestTieBreakSurvivesSlotReuse(t *testing.T) {
	var q Queue
	var handles []Handle
	for i := 0; i < 50; i++ {
		handles = append(handles, q.PushDeliver(7, mk(uint64(i))))
	}
	// Remove every third event, then push replacements at the same
	// timestamp (they reuse freed slots but get later seqs).
	for i := 0; i < 50; i += 3 {
		q.Remove(handles[i])
	}
	for i := 50; i < 60; i++ {
		q.PushDeliver(7, mk(uint64(i)))
	}
	last := uint64(0)
	first := true
	for q.Len() > 0 {
		ev, _ := q.Pop()
		if !first && ev.Seq <= last {
			t.Fatalf("insertion order violated: seq %d after %d", ev.Seq, last)
		}
		last, first = ev.Seq, false
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.PushDeliver(1, mk(9))
	pv, ok := q.Peek()
	if !ok || pv.Msg.ID.Seq != 9 {
		t.Fatal("peek wrong payload")
	}
	if q.Len() != 1 {
		t.Fatal("peek must not remove")
	}
	ev, _ := q.Pop()
	if ev.At != pv.At || ev.Seq != pv.Seq || ev.Kind != pv.Kind || ev.Msg != pv.Msg {
		t.Fatal("peek and pop disagree")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty should report empty")
	}
}

func TestRemove(t *testing.T) {
	var q Queue
	a := q.PushDeliver(1, mk(1))
	b := q.PushDeliver(2, mk(2))
	c := q.PushDeliver(3, mk(3))
	if !q.Remove(b) {
		t.Fatal("remove should succeed")
	}
	if q.Remove(b) {
		t.Fatal("double remove should fail")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	e1, _ := q.Pop()
	e2, _ := q.Pop()
	if e1.Msg.ID.Seq != 1 || e2.Msg.ID.Seq != 3 {
		t.Fatal("remaining order wrong after remove")
	}
	if q.Remove(Handle{}) {
		t.Fatal("removing the zero handle should be a no-op")
	}
	if q.Remove(a) || q.Remove(c) {
		t.Fatal("removing popped events should fail")
	}
}

// Remove on a handle whose event already fired must stay a no-op even
// after the slot has been reused by a new event — the generation counter
// is what protects rollback's lazy cancellation from cancelling a
// stranger's timer.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	var q Queue
	stale := q.PushDeliver(1, mk(1))
	if ev, _ := q.Pop(); ev.Msg.ID.Seq != 1 {
		t.Fatal("setup pop failed")
	}
	// This push reuses the freed slot.
	fresh := q.PushDeliver(2, mk(2))
	if q.Live(stale) {
		t.Fatal("stale handle must not read as live")
	}
	if q.Remove(stale) {
		t.Fatal("stale handle must not remove the slot's new occupant")
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1 (new event must survive stale remove)", q.Len())
	}
	if !q.Live(fresh) || !q.Remove(fresh) {
		t.Fatal("fresh handle should be live and removable")
	}
}

func TestNextAt(t *testing.T) {
	var q Queue
	if q.NextAt() != vtime.Never {
		t.Fatal("NextAt on empty should be Never")
	}
	q.PushCall(42, Func(func() {}))
	if q.NextAt() != 42 {
		t.Fatalf("NextAt = %v, want 42", q.NextAt())
	}
}

// Property: popping a randomly filled queue yields non-decreasing
// timestamps, and same-timestamp events come out in insertion order.
func TestPopOrderProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rng.New(seed)
		var q Queue
		for i := 0; i < n; i++ {
			q.PushDeliver(vtime.Time(r.Intn(50)), mk(uint64(i)))
		}
		lastAt := vtime.Time(-1)
		lastSeq := uint64(0)
		first := true
		for q.Len() > 0 {
			ev, _ := q.Pop()
			if ev.At < lastAt {
				return false
			}
			if !first && ev.At == lastAt && ev.Seq < lastSeq {
				return false
			}
			lastAt, lastSeq, first = ev.At, ev.Seq, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved removes keep heap invariants (pops still sorted),
// with slot reuse churning the slab.
func TestRemoveKeepsOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var q Queue
		handles := make([]Handle, 0, 150)
		for i := 0; i < 100; i++ {
			handles = append(handles, q.PushDeliver(vtime.Time(r.Intn(30)), mk(uint64(i))))
		}
		for i := 0; i < 40; i++ {
			q.Remove(handles[r.Intn(len(handles))])
		}
		// Refill some of the freed slots.
		for i := 0; i < 20; i++ {
			handles = append(handles, q.PushDeliver(vtime.Time(r.Intn(30)), mk(uint64(100+i))))
		}
		last := vtime.Time(-1)
		for q.Len() > 0 {
			ev, _ := q.Pop()
			if ev.At < last {
				return false
			}
			last = ev.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state churn on a warm queue must not allocate: the slab and the
// free list make push/pop reuse the same cells.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue
	for i := 0; i < 64; i++ {
		q.PushDeliver(vtime.Time(i), mk(uint64(i)))
	}
	avg := testing.AllocsPerRun(1000, func() {
		ev, _ := q.Pop()
		q.PushDeliver(ev.At+64, ev.Msg)
	})
	if avg != 0 {
		t.Fatalf("steady-state churn allocates %.1f allocs/op, want 0", avg)
	}
}

func BenchmarkPushPop(b *testing.B) {
	b.ReportAllocs()
	var q Queue
	m := mk(1)
	for i := 0; i < 128; i++ {
		q.PushDeliver(vtime.Time(i%32), m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, _ := q.Pop()
		q.PushDeliver(ev.At+32, m)
	}
}

// residentQueue is the classic hold model at a fixed resident size: size
// events spread over one mean hold, each pop re-pushed a random hold
// later. What a push or pop costs at a given resident size is the number
// the rollback engine's tick chain moves — it took the queue from
// nodes × groups entries (≈ 40k on the 1,928-router hierarchy) to the
// in-flight set.
type residentQueue struct {
	q     Queue
	c     caller
	holds [1024]vtime.Duration
	i     int
}

func newResidentQueue(size int) *residentQueue {
	rq := &residentQueue{}
	r := rng.New(uint64(size))
	for i := range rq.holds {
		rq.holds[i] = vtime.Duration(1 + r.Intn(2*size))
	}
	for i := 0; i < size; i++ {
		rq.q.PushCall(vtime.Time(r.Intn(size)), &rq.c)
	}
	return rq
}

func (rq *residentQueue) step() {
	ev, _ := rq.q.Pop()
	rq.q.PushCall(ev.At.Add(rq.holds[rq.i%len(rq.holds)]), &rq.c)
	rq.i++
}

func BenchmarkQueueResident(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{{"1k", 1_000}, {"40k", 40_000}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rq := newResidentQueue(bc.size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rq.step()
			}
		})
	}
}

// The resident-size benchmark's step allocates nothing once the slab is
// warm: the popped slot goes onto the intrusive free list and the push
// takes it straight back.
func TestQueueResidentAllocFree(t *testing.T) {
	rq := newResidentQueue(1_000)
	if avg := testing.AllocsPerRun(1000, rq.step); avg != 0 {
		t.Fatalf("resident push+pop allocates %.1f allocs/op, want 0", avg)
	}
	if rq.q.Len() != 1_000 {
		t.Fatalf("resident size drifted to %d", rq.q.Len())
	}
}

// Reschedule slides a live event to a new time while keeping its handle
// and insertion sequence; stale handles are a safe no-op.
func TestReschedule(t *testing.T) {
	var q Queue
	a := q.PushCall(10, Func(func() {}))
	q.PushCall(20, Func(func() {}))
	c := q.PushCall(30, Func(func() {}))

	// Later: c ahead of nothing; earlier: c in front of everything.
	if !q.Reschedule(c, 5) {
		t.Fatal("live handle must reschedule")
	}
	if at := q.NextAt(); at != 5 {
		t.Fatalf("NextAt = %v, want 5", at)
	}
	if !q.Reschedule(c, 25) {
		t.Fatal("second reschedule must work (handle stays valid)")
	}
	ev, _ := q.Pop()
	if ev.At != 10 {
		t.Fatalf("first pop at %v, want 10", ev.At)
	}
	// a has fired: its handle is stale and rescheduling it is a no-op.
	if q.Reschedule(a, 1) {
		t.Fatal("stale handle must not reschedule")
	}
	ev, _ = q.Pop()
	if ev.At != 20 {
		t.Fatalf("second pop at %v, want 20", ev.At)
	}
	if !q.Reschedule(c, 20) {
		t.Fatal("reschedule onto an occupied timestamp must work")
	}
	ev, _ = q.Pop()
	if ev.At != 20 {
		t.Fatalf("third pop at %v, want 20 (c, moved)", ev.At)
	}
	if q.Len() != 0 {
		t.Fatalf("queue should be empty, len %d", q.Len())
	}
}

// Rescheduling onto the same timestamp of another event keeps insertion
// order as the tie-break: the rescheduled event keeps its original seq.
func TestRescheduleTieBreakKeepsSeq(t *testing.T) {
	var q Queue
	first := q.PushCall(10, Func(func() {}))
	q.PushCall(50, Func(func() {}))
	if !q.Reschedule(first, 50) {
		t.Fatal("reschedule failed")
	}
	ev, _ := q.Pop()
	if ev.Seq != 0 {
		t.Fatalf("first-pushed event must still win the tie: seq %d", ev.Seq)
	}
}

// Reschedule must not allocate: it only re-sifts the heap.
func TestRescheduleAllocFree(t *testing.T) {
	var q Queue
	h := q.PushCall(10, Func(func() {}))
	for i := 0; i < 64; i++ {
		q.PushCall(vtime.Time(20+i), Func(func() {}))
	}
	at := vtime.Time(100)
	avg := testing.AllocsPerRun(1000, func() {
		at++
		q.Reschedule(h, at)
	})
	if avg != 0 {
		t.Fatalf("Reschedule allocates %.1f allocs/op, want 0", avg)
	}
}

// caller is a minimal eventq.Caller for the typed-call tests.
type caller struct{ fired int }

func (c *caller) Fire() { c.fired++ }

func TestCallEvents(t *testing.T) {
	var q Queue
	c := &caller{}
	q.PushCall(5, c)
	ev, ok := q.Pop()
	if !ok || ev.Kind != KindCall || ev.Call == nil {
		t.Fatalf("got %+v ok=%v, want call event", ev, ok)
	}
	ev.Call.Fire()
	if c.fired != 1 {
		t.Fatal("call payload should round-trip")
	}
}

// PushCall orders with deliveries by (at, seq) and allocates nothing in
// steady state, for a pooled Caller and for a prebuilt Func alike — the
// property the rollback engine's pooled sentRecs and its bound flush
// callbacks rely on.
func TestCallOrderingAndZeroAlloc(t *testing.T) {
	var q Queue
	c := &caller{}
	fired := []string{}
	fn := Func(func() { fired = append(fired, "fn") })
	q.PushCall(10, fn)
	q.PushCall(10, c)
	q.PushDeliver(5, mk(1))
	if ev, _ := q.Pop(); ev.Kind != KindDeliver {
		t.Fatalf("earliest should be deliver, got %v", ev.Kind)
	}
	if ev, _ := q.Pop(); ev.Kind != KindCall || ev.Call == Caller(c) {
		t.Fatalf("same-time tie should pop insertion order (fn first), got %+v", ev)
	} else if ev.Call.Fire(); len(fired) != 1 {
		t.Fatal("the Func payload did not run")
	}
	if ev, _ := q.Pop(); ev.Kind != KindCall || ev.Call != Caller(c) {
		t.Fatalf("want the call event last, got %+v", ev)
	}

	// Warm the slab, then verify steady-state PushCall/Pop allocates 0.
	for i := 0; i < 8; i++ {
		q.PushCall(vtime.Time(i), c)
	}
	for {
		if _, ok := q.Pop(); !ok {
			break
		}
	}
	for _, target := range []Caller{c, fn} {
		allocs := testing.AllocsPerRun(100, func() {
			q.PushCall(7, target)
			q.Pop()
		})
		if allocs != 0 {
			t.Fatalf("steady-state PushCall(%T) allocates %v objects/op, want 0", target, allocs)
		}
	}
}

// PushCall schedules a pre-bound Caller at time at (no allocation).
func (q *Queue) PushCall(at vtime.Time, c Caller) Handle {
	return q.push(at, nil, c)
}

// Peek returns the earliest event without removing it; the second result
// is false when the queue is empty.
func (q *Queue) Peek() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.event(q.heap[0]), true
}
