// Package eventq implements the priority queue that drives the
// discrete-event network simulator. Events are ordered by virtual
// timestamp with a strictly increasing insertion sequence as tie-breaker,
// so simulations are fully deterministic even when many events share a
// timestamp.
//
// The queue is allocation-free in steady state. Events live in a slab of
// reusable slots rather than individually heap-allocated nodes, and the
// payload is one of two pointers instead of a boxed `any`: a message
// delivery (Deliver) or a pre-bound Caller. A plain callback is a Caller
// through the Func adapter, which costs no allocation of its own.
//
// # Layout
//
// An event is split across two dense arrays, 56 bytes in all:
//
//   - its heap cell {at, seq, slot} (24 B) carries the whole ordering key
//     inline. The heap is a 4-ary min-heap of cells — half a binary heap's
//     sift-down depth, a node's four children in at most two cache lines —
//     and comparing two entries reads only the heap array: a sift never
//     touches the slab except to write back the one heap position that
//     changed per level (sifting moves a hole, it does not swap).
//   - its slot {gen, heapIdx, m, call} (32 B) holds what ordering does not
//     need; its kind is whichever of m and call is set. heapIdx is the
//     slot's heap position while the event is pending; while the slot is
//     free it is the link of an intrusive free list (complemented, so it
//     stays negative and Live needs no second flag). Reuse is LIFO, which
//     keeps the slab cache-hot.
//
// Every push and pop pays for the queue's resident size in sift depth and
// cache misses, so the footprint is part of the design: the key lives in
// the heap cell, the free list in the slots, and the kind in the payload
// pointers themselves.
//
// # Sequences
//
// PushDeliver and PushCall label an event with the queue's own insertion
// counter; the Push*Seq forms take the label from the caller and leave the
// counter alone. The simulator labels every event it schedules from one
// counter of its own, which spans all of its queues (the driver's and, in
// sharded mode, one per lane), so the (at, seq) order is the same whichever
// queue an event sits in. SetSeq relabels a live event, for the sharded
// runtime's provisional sequences.
//
// Push returns a Handle (slot index + generation counter) instead of a
// pointer. A Handle taken for an event that has since fired or been
// removed goes stale: the slot's generation advances when it is freed, so
// Remove with a stale Handle is a safe no-op even if the slot has been
// reused for a different event — exactly the semantics rollback's lazy
// anti-message cancellation relies on.
package eventq

import (
	"defined/internal/msg"
	"defined/internal/vtime"
)

// Kind discriminates the payload union of an Event.
type Kind uint8

const (
	// KindNone is the zero Kind: the Event Pop and Peek return on an empty
	// queue.
	KindNone Kind = iota
	// KindDeliver is a scheduled message delivery.
	KindDeliver
	// KindCall is a scheduled Caller: a timer, a scenario callback, or a
	// pooled object (the rollback engine's sent records) that schedules
	// itself without allocating.
	KindCall
)

// Caller is a pre-bound event target; see KindCall.
type Caller interface {
	Fire()
}

// Func adapts a plain callback to Caller. A func value is a single
// pointer, so converting one to a Caller allocates nothing beyond the
// closure itself.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is the by-value view of a scheduled occurrence, as returned by
// Pop and Peek. Exactly one of Msg (KindDeliver) and Call (KindCall) is
// set.
type Event struct {
	At   vtime.Time
	Seq  uint64 // insertion order
	Kind Kind
	Msg  *msg.Message
	Call Caller
}

// Handle identifies a pending event for cancellation. The zero Handle is
// never valid (generations start at 1), so it can encode "no event".
type Handle struct {
	slot int32
	gen  uint32
}

// IsZero reports whether h is the zero Handle ("no event").
func (h Handle) IsZero() bool { return h == Handle{} }

// cell is one heap entry: the event's ordering key inline, plus the slab
// slot holding its payload.
type cell struct {
	at   vtime.Time
	seq  uint64
	slot int32
}

// before orders cells by (timestamp, insertion sequence).
func (c cell) before(d cell) bool {
	if c.at != d.at {
		return c.at < d.at
	}
	return c.seq < d.seq
}

// slot is one slab cell: a delivery sets m, a callback sets call, a free
// slot sets neither. Freed slots advance gen (invalidating handles) and
// chain onto the free list through heapIdx: a pending slot's heapIdx is
// its heap position (>= 0), a free slot's is ^next, where next is the
// following free slot's index plus one (0 ends the list) — always negative.
type slot struct {
	gen     uint32
	heapIdx int32
	m       *msg.Message
	call    Caller
}

// Queue is a deterministic min-heap of events. The zero value is ready to
// use. Queue is not safe for concurrent use: each queue has one owner at a
// time (the simulator's driver, or a lane's worker during a window).
type Queue struct {
	slots    []slot // slab; grows monotonically, cells are reused
	heap     []cell // 4-ary min-heap order
	freeHead int32  // most recently freed slot's index plus one; 0 = none
	next     uint64 // insertion sequence
}

// Live reports whether h still refers to a pending event.
func (q *Queue) Live(h Handle) bool {
	return h.slot >= 0 && int(h.slot) < len(q.slots) &&
		q.slots[h.slot].gen == h.gen && h.gen != 0 &&
		q.slots[h.slot].heapIdx >= 0
}

// PushDeliver schedules delivery of m at time at.
func (q *Queue) PushDeliver(at vtime.Time, m *msg.Message) Handle {
	return q.push(at, m, nil)
}

// PushCall schedules a pre-bound Caller at time at (no allocation).
func (q *Queue) PushCall(at vtime.Time, c Caller) Handle {
	return q.push(at, nil, c)
}

// PushDeliverSeq schedules delivery of m at time at under an externally
// assigned insertion sequence. The simulator owns one sequence counter
// spanning all of its queues; explicit-seq pushes are how every event gets
// the same (at, seq) label in sequential and sharded runs. The queue's own
// counter is not advanced.
func (q *Queue) PushDeliverSeq(at vtime.Time, seq uint64, m *msg.Message) Handle {
	return q.pushSeq(at, seq, m, nil)
}

// PushCallSeq schedules a pre-bound Caller at time at with an externally
// assigned sequence (no allocation).
func (q *Queue) PushCallSeq(at vtime.Time, seq uint64, c Caller) Handle {
	return q.pushSeq(at, seq, nil, c)
}

// SetSeq rewrites a live event's insertion sequence and restores heap
// order. Sharded windows push events under provisional sequences and
// resolve them to globally ordered ones at the commit barrier; a stale
// handle (the event already fired or was cancelled) is a safe no-op that
// returns false, like Remove.
func (q *Queue) SetSeq(h Handle, seq uint64) bool {
	if !q.Live(h) {
		return false
	}
	i := int(q.slots[h.slot].heapIdx)
	c := q.heap[i]
	if c.seq != seq {
		c.seq = seq
		q.fix(i, c)
	}
	return true
}

// NextAtSeq returns the (timestamp, sequence) pair of the earliest pending
// event; ok is false when the queue is empty. It is the frontier probe the
// sharded runtime's merge loop runs on every queue without popping.
func (q *Queue) NextAtSeq() (at vtime.Time, seq uint64, ok bool) {
	if len(q.heap) == 0 {
		return vtime.Never, 0, false
	}
	return q.heap[0].at, q.heap[0].seq, true
}

// Scan calls fn for every pending event in unspecified (heap) order.
// Mutating the queue from fn is not allowed. The sharded runtime uses it
// to enumerate a window's scheduled deliveries and to re-derive which
// queued arrivals a link/node state change doomed.
func (q *Queue) Scan(fn func(Event)) {
	for _, c := range q.heap {
		fn(q.event(c))
	}
}

// event assembles the by-value view of the pending event in heap cell c.
func (q *Queue) event(c cell) Event {
	s := &q.slots[c.slot]
	kind := KindCall
	if s.m != nil {
		kind = KindDeliver
	}
	return Event{At: c.at, Seq: c.seq, Kind: kind, Msg: s.m, Call: s.call}
}

func (q *Queue) push(at vtime.Time, m *msg.Message, call Caller) Handle {
	h := q.pushSeq(at, q.next, m, call)
	q.next++
	return h
}

func (q *Queue) pushSeq(at vtime.Time, seq uint64, m *msg.Message, call Caller) Handle {
	var idx int32
	if q.freeHead != 0 {
		idx = q.freeHead - 1
		q.freeHead = ^q.slots[idx].heapIdx
	} else {
		q.slots = append(q.slots, slot{gen: 1})
		idx = int32(len(q.slots) - 1)
	}
	s := &q.slots[idx]
	s.m = m
	s.call = call
	q.heap = append(q.heap, cell{})
	q.siftUp(len(q.heap)-1, cell{at: at, seq: seq, slot: idx})
	return Handle{slot: idx, gen: s.gen}
}

// Pop removes and returns the earliest event. The second result is false
// when the queue is empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	ev := q.event(q.heap[0])
	q.deleteAt(0)
	return ev, true
}

// Peek returns the earliest event without removing it; the second result
// is false when the queue is empty.
func (q *Queue) Peek() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.event(q.heap[0]), true
}

// Remove cancels a previously pushed event. Removing an event that has
// already fired or been removed — even if its slot has since been reused —
// is a no-op and returns false.
func (q *Queue) Remove(h Handle) bool {
	if !q.Live(h) {
		return false
	}
	q.deleteAt(int(q.slots[h.slot].heapIdx))
	return true
}

// Reschedule moves a live event to a new timestamp without freeing its
// slot: the handle stays valid and the event keeps its insertion sequence
// (so re-arming is deterministic and allocation-free). It reports whether
// the event was live; stale handles — fired, removed, or reused slots —
// are a safe no-op, mirroring Remove.
//
// This is the re-arm hook the rollback engine's arrival-deferral timer
// uses: one flush event per node, slid earlier or later as the pending
// buffer changes, instead of a fresh event per deferred arrival.
func (q *Queue) Reschedule(h Handle, at vtime.Time) bool {
	if !q.Live(h) {
		return false
	}
	i := int(q.slots[h.slot].heapIdx)
	c := q.heap[i]
	if c.at != at {
		c.at = at
		q.fix(i, c)
	}
	return true
}

// deleteAt removes the heap entry at position i and frees its slot.
func (q *Queue) deleteAt(i int) {
	idx := q.heap[i].slot
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if i != last {
		q.fix(i, moved)
	}
	s := &q.slots[idx]
	s.gen++
	s.heapIdx = ^q.freeHead
	q.freeHead = idx + 1
	s.m = nil
	s.call = nil
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// NextAt returns the timestamp of the earliest pending event, or
// vtime.Never when the queue is empty.
func (q *Queue) NextAt() vtime.Time {
	if len(q.heap) == 0 {
		return vtime.Never
	}
	return q.heap[0].at
}

// fix places cell c — whose key may have changed, or which is replacing a
// deleted entry — starting from heap position i, whichever way it has to
// move. A cell that sorts before its parent cannot also sort after a
// child (the parent already precedes them), so one direction suffices.
func (q *Queue) fix(i int, c cell) {
	if i > 0 && c.before(q.heap[(i-1)/4]) {
		q.siftUp(i, c)
	} else {
		q.siftDown(i, c)
	}
}

// place writes c at heap position i and records the position in its slot.
func (q *Queue) place(i int, c cell) {
	q.heap[i] = c
	q.slots[c.slot].heapIdx = int32(i)
}

// siftUp moves the hole at position i toward the root until c fits, then
// places c there: one slab write per level instead of a swap's two.
func (q *Queue) siftUp(i int, c cell) {
	for i > 0 {
		parent := (i - 1) / 4
		pc := q.heap[parent]
		if !c.before(pc) {
			break
		}
		q.place(i, pc)
		i = parent
	}
	q.place(i, c)
}

// siftDown moves the hole at position i toward the leaves until c fits,
// then places c there.
func (q *Queue) siftDown(i int, c cell) {
	n := len(q.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for k := first + 1; k < end; k++ {
			if q.heap[k].before(q.heap[best]) {
				best = k
			}
		}
		bc := q.heap[best]
		if !bc.before(c) {
			break
		}
		q.place(i, bc)
		i = best
	}
	q.place(i, c)
}
