package eventq

import (
	"sort"
	"testing"

	"defined/internal/vtime"
)

// Tests for the explicit-sequence surface the simulator runs on:
// PushXxxSeq (its one counter across queues), SetSeq (provisional-sequence
// resolution at the commit barrier), NextAtSeq (frontier probe) and Scan
// (window-schedule / doom enumeration).

// Explicit-seq pushes must interleave with counter pushes purely by
// (at, seq) — and must not advance the queue's own counter.
func TestExplicitSeqOrdering(t *testing.T) {
	var q Queue
	q.PushDeliver(50, mk(0)) // counter push: seq 0
	q.PushDeliverSeq(50, 7, mk(7))
	q.PushDeliverSeq(50, 2, mk(2))
	q.PushDeliver(50, mk(1)) // counter push: seq 1 — unaffected by the Seq pushes
	for i, want := range []uint64{0, 1, 2, 7} {
		ev, ok := q.Pop()
		if !ok || ev.Msg.ID.Seq != want {
			t.Fatalf("pop %d: got %+v ok=%v, want msg %d", i, ev, ok, want)
		}
	}
}

// SetSeq must re-sift the event into its resolved position, so an event
// pushed under a huge provisional sequence can commit ahead of
// later-sequenced neighbors at the same timestamp.
func TestSetSeqResiftsBothWays(t *testing.T) {
	var q Queue
	const prov = uint64(1) << 63
	h := q.PushDeliverSeq(10, prov, mk(99))
	q.PushDeliverSeq(10, 5, mk(5))
	q.PushDeliverSeq(10, 9, mk(9))
	if !q.SetSeq(h, 3) {
		t.Fatal("SetSeq on a live handle returned false")
	}
	for i, want := range []uint64{99, 5, 9} {
		ev, _ := q.Pop()
		if ev.Msg.ID.Seq != want {
			t.Fatalf("pop %d: got msg %d, want %d", i, ev.Msg.ID.Seq, want)
		}
	}
	// The other direction: push low, resolve high.
	h2 := q.PushDeliverSeq(10, 0, mk(0))
	q.PushDeliverSeq(10, 1, mk(1))
	q.SetSeq(h2, 8)
	ev, _ := q.Pop()
	if ev.Msg.ID.Seq != 1 {
		t.Fatalf("after raising seq, head is msg %d, want 1", ev.Msg.ID.Seq)
	}
}

// A stale handle (already fired or cancelled) must make SetSeq a no-op
// that returns false — the commit barrier resolves every logged push
// blindly, including ones whose event already executed in-window.
func TestSetSeqStaleHandle(t *testing.T) {
	var q Queue
	h := q.PushDeliverSeq(10, 1<<63, mk(1))
	q.Pop()
	if q.SetSeq(h, 0) {
		t.Fatal("SetSeq on a fired event's handle returned true")
	}
	h2 := q.PushDeliverSeq(10, 2, mk(2))
	q.Remove(h2)
	if q.SetSeq(h2, 0) {
		t.Fatal("SetSeq on a cancelled event's handle returned true")
	}
}

func TestNextAtSeq(t *testing.T) {
	var q Queue
	if _, _, ok := q.NextAtSeq(); ok {
		t.Fatal("NextAtSeq on empty queue reported an event")
	}
	q.PushDeliverSeq(30, 4, mk(4))
	q.PushDeliverSeq(20, 9, mk(9))
	at, seq, ok := q.NextAtSeq()
	if !ok || at != 20 || seq != 9 {
		t.Fatalf("NextAtSeq = (%d, %d, %v), want (20, 9, true)", at, seq, ok)
	}
	if q.Len() != 2 {
		t.Fatal("NextAtSeq must not pop")
	}
}

// Scan must enumerate every pending event exactly once with its (at, seq)
// label intact, regardless of heap shape.
func TestScanEnumeratesAll(t *testing.T) {
	var q Queue
	want := map[uint64]vtime.Time{}
	for i := uint64(0); i < 20; i++ {
		at := vtime.Time(100 - i*3)
		q.PushDeliverSeq(at, i, mk(i))
		want[i] = at
	}
	var got []uint64
	q.Scan(func(ev Event) {
		if want[ev.Seq] != ev.At {
			t.Fatalf("seq %d scanned at %d, want %d", ev.Seq, ev.At, want[ev.Seq])
		}
		got = append(got, ev.Seq)
	})
	if len(got) != len(want) {
		t.Fatalf("scanned %d events, want %d", len(got), len(want))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("scan missed or duplicated seq %d", i)
		}
	}
}
