package ospf

// Journal-specific tests: rewinding the undo journal must restore a state
// semantically identical to a Clone taken at the mark, across multiple
// marks in one step, and settle-time compaction must discard exactly the
// unreachable prefix while keeping younger marks rewindable.

import (
	"slices"
	"testing"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// statesEqual compares two daemon states semantically: slice spare
// capacity and nil-vs-empty distinctions (which rewind legitimately leaves
// behind) are ignored.
func statesEqual(t *testing.T, got, want *state) {
	t.Helper()
	if len(got.lsdb) != len(want.lsdb) {
		t.Fatalf("lsdb len %d vs %d", len(got.lsdb), len(want.lsdb))
	}
	for i := range got.lsdb {
		if got.lsdb[i] != want.lsdb[i] {
			t.Fatalf("lsdb[%d]: %v vs %v", i, got.lsdb[i], want.lsdb[i])
		}
	}
	for i := range got.adjUp {
		if got.adjUp[i] != want.adjUp[i] {
			t.Fatalf("adjUp[%d]: %v vs %v", i, got.adjUp[i], want.adjUp[i])
		}
	}
	for i := range got.lastHello {
		if got.lastHello[i] != want.lastHello[i] {
			t.Fatalf("lastHello[%d]: %v vs %v", i, got.lastHello[i], want.lastHello[i])
		}
	}
	if got.seq != want.seq || got.now != want.now || got.booted != want.booted || got.spfRuns != want.spfRuns {
		t.Fatalf("scalars differ: seq %d/%d now %v/%v booted %v/%v spfRuns %d/%d",
			got.seq, want.seq, got.now, want.now, got.booted, want.booted, got.spfRuns, want.spfRuns)
	}
	if got.epoch != want.epoch || got.tableEpoch != want.tableEpoch {
		t.Fatalf("epochs differ: epoch %d/%d tableEpoch %d/%d",
			got.epoch, want.epoch, got.tableEpoch, want.tableEpoch)
	}
	if !slices.Equal(got.table.flat(), want.table.flat()) {
		t.Fatalf("table %v vs %v", got.table.flat(), want.table.flat())
	}
	if len(got.holdQueue) != len(want.holdQueue) {
		t.Fatalf("holdQueue len %d vs %d", len(got.holdQueue), len(want.holdQueue))
	}
	for i := range got.holdQueue {
		if got.holdQueue[i] != want.holdQueue[i] {
			t.Fatalf("holdQueue[%d]: %+v vs %+v", i, got.holdQueue[i], want.holdQueue[i])
		}
	}
}

func lsaMsg(from msg.NodeID, lsa *LSA) *msg.Message {
	return &msg.Message{From: from, To: 0, Kind: msg.KindApp, Payload: lsa}
}

// journaledDaemon builds node 0 of a 0-1-2 line with holddown enabled (so
// the holdQueue paths journal too) and journaling on.
func journaledDaemon() *Daemon {
	d := New(Config{FloodHolddown: 600 * vtime.Millisecond})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()
	return d
}

func TestJournalRewindRestoresCloneAcrossMarks(t *testing.T) {
	d := journaledDaemon()

	type point struct {
		mark  journal.Mark
		clone *state
	}
	var pts []point
	save := func() {
		pts = append(pts, point{d.JournalMark(), d.st.Clone().(*state)})
	}

	save() // before any delivery
	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	save()
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 5, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	save()
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 3, Links: []Adj{{To: 1, Cost: 1}}}))
	save()
	d.HandleTimer(vtime.Time(1000 * vtime.Millisecond)) // releases held LSAs, hellos
	save()
	// Dead-interval expiry: a long silent gap tears adjacencies down and
	// re-originates.
	d.HandleTimer(vtime.Time(9 * vtime.Second))

	// Rewind one mark at a time, newest first — each step crosses a full
	// handler's worth of mutations.
	for i := len(pts) - 1; i >= 0; i-- {
		d.JournalRewind(pts[i].mark)
		statesEqual(t, d.st, pts[i].clone)
	}

	// And the daemon still works after a full rewind: replaying the same
	// inputs reaches the same state as the deepest clone sequence.
	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	statesEqual(t, d.st, pts[1].clone)
}

func TestJournalRewindPastMultipleMarksAtOnce(t *testing.T) {
	d := journaledDaemon()
	m0 := d.JournalMark()
	want := d.st.Clone().(*state)

	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	_ = d.JournalMark() // intermediate marks are skipped by the rewind
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 2, Links: []Adj{{To: 0, Cost: 1}}}))
	_ = d.JournalMark()
	d.HandleTimer(vtime.Time(1250 * vtime.Millisecond))

	d.JournalRewind(m0) // jump straight past three handlers and two marks
	statesEqual(t, d.st, want)
}

func TestJournalCompactionKeepsYoungerMarksExact(t *testing.T) {
	d := journaledDaemon()

	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	settled := d.JournalMark() // the oldest live checkpoint after settlement
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 7, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	live := d.JournalMark()
	liveClone := d.st.Clone().(*state)
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 4, Links: []Adj{{To: 1, Cost: 1}}}))

	before := d.j.Len()
	d.JournalCompact(settled)
	if d.j.Base() != settled {
		t.Fatalf("base = %d, want %d", d.j.Base(), settled)
	}
	if d.j.Len() >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before, d.j.Len())
	}

	// The surviving mark still restores exactly.
	d.JournalRewind(live)
	statesEqual(t, d.st, liveClone)

	// Rewinding past the compaction point must panic loudly, never
	// silently corrupt.
	defer func() {
		if recover() == nil {
			t.Fatal("rewind past compacted prefix must panic")
		}
	}()
	d.JournalRewind(settled - 1)
}

func TestJournalDisabledRecordsNothing(t *testing.T) {
	d := New(Config{})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}})
	// No JournalEnable: a full exchange must leave the journal empty (the
	// baseline and lockstep engines rely on this staying O(1)).
	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 2, Links: []Adj{{To: 0, Cost: 1}}}))
	d.HandleTimer(vtime.Time(1250 * vtime.Millisecond))
	if d.j.Len() != 0 || d.j.Enabled() {
		t.Fatalf("disabled journal recorded %d entries", d.j.Len())
	}
}

// TestJournalHolddownThroughSideJournals is a FloodHolddown > 0 program
// through the record shape that keeps old slice headers out of undoRec:
// pushHold and setHoldQueue (holds), setTable (tables). Several LSAs are
// held with staggered releases, a timer releases some and keeps the rest,
// the prefix is compacted away mid-program, and every surviving mark must
// still rewind to the Clone taken at it — with each side journal holding
// exactly one entry per record of its kind left in the main journal.
func TestJournalHolddownThroughSideJournals(t *testing.T) {
	d := journaledDaemon() // holddown 600 ms
	ms := func(n int) vtime.Time { return vtime.Time(n) * vtime.Time(vtime.Millisecond) }
	sideInStep := func(when string) {
		t.Helper()
		var tables, holds int
		for p := d.j.Base(); p < d.j.Mark(); p++ {
			switch d.j.At(p).kind {
			case undoTable:
				tables++
			case undoHoldSlice:
				holds++
			}
		}
		if d.tables.Len() != tables || d.holds.Len() != holds {
			t.Fatalf("%s: side journals hold %d tables / %d queues for %d / %d records",
				when, d.tables.Len(), d.holds.Len(), tables, holds)
		}
	}
	type point struct {
		mark  journal.Mark
		clone *state
	}
	var pts []point
	save := func() { pts = append(pts, point{d.JournalMark(), d.st.Clone().(*state)}) }

	d.HandleTimer(ms(250)) // boot
	save()
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 5, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}})) // held until 850
	save()
	d.HandleTimer(ms(500))
	d.HandleMessage(lsaMsg(2, &LSA{Origin: 2, Seq: 3, Links: []Adj{{To: 0, Cost: 1}, {To: 1, Cost: 1}}})) // held until 1100
	save()
	if len(d.st.holdQueue) != 2 {
		t.Fatalf("%d LSAs held, want 2", len(d.st.holdQueue))
	}
	d.HandleTimer(ms(1000)) // releases the first, keeps the second: setHoldQueue
	if len(d.st.holdQueue) != 1 || d.holds.Len() != 1 {
		t.Fatalf("after the partial release: %d held, %d old queues journaled, want 1 and 1", len(d.st.holdQueue), d.holds.Len())
	}
	save()
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 6, Links: []Adj{{To: 0, Cost: 1}}})) // held until 1600, moves the table
	save()
	d.HandleTimer(ms(1250)) // releases the second
	d.HandleTimer(ms(2000)) // and the third: the queue empties
	sideInStep("before compaction")

	// Settle the first two checkpoints: the prefix goes, in all three journals.
	d.JournalCompact(pts[2].mark)
	sideInStep("after compaction")
	for i := len(pts) - 1; i >= 2; i-- {
		d.JournalRewind(pts[i].mark)
		statesEqual(t, d.st, pts[i].clone)
		sideInStep("after a rewind")
	}
	// The same inputs from the oldest surviving mark reach the same states;
	// settling past the partial release drops an old queue header as well.
	d.HandleTimer(ms(1000))
	statesEqual(t, d.st, pts[3].clone)
	save()
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 6, Links: []Adj{{To: 0, Cost: 1}}}))
	d.HandleTimer(ms(1250))
	d.HandleTimer(ms(2000))
	last := pts[len(pts)-1]
	d.JournalCompact(last.mark)
	if d.holds.Len() != 2 || d.holds.Base() != 1 {
		t.Fatalf("holds after settling the partial release: %d live from %d, want 2 from 1", d.holds.Len(), d.holds.Base())
	}
	sideInStep("after the second compaction")
	d.JournalRewind(last.mark)
	statesEqual(t, d.st, last.clone)
}

// CloneInto equals Clone whether it shrinks or grows the recycled state's
// slices, returns the recycled state itself, and shares nothing with the
// source: later writes to either leave the copy as it was.
func TestCloneIntoMatchesClone(t *testing.T) {
	d := journaledDaemon()
	d.HandleTimer(vtime.Time(250 * vtime.Millisecond))
	early := d.st.Clone().(*state)
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 1, Seq: 5, Links: []Adj{{To: 0, Cost: 1}, {To: 2, Cost: 1}}}))
	d.HandleMessage(lsaMsg(1, &LSA{Origin: 2, Seq: 3, Links: []Adj{{To: 1, Cost: 1}}}))
	late := d.st.Clone().(*state)
	if len(late.lsdb) <= len(early.lsdb) || len(late.holdQueue) == 0 {
		t.Fatalf("setup: lsdb %d → %d, %d held", len(early.lsdb), len(late.lsdb), len(late.holdQueue))
	}

	wantEarly := early.Clone().(*state)
	if got := early.CloneInto(late); got != late {
		t.Fatal("CloneInto did not copy into the state it was given")
	}
	statesEqual(t, late, wantEarly) // shrunk

	want := d.st.Clone().(*state)
	got := d.st.CloneInto(early).(*state)
	statesEqual(t, got, want) // grown
	statesEqual(t, late, wantEarly)
	d.HandleTimer(vtime.Time(1000 * vtime.Millisecond)) // releases held LSAs, hellos
	d.HandleTimer(vtime.Time(9 * vtime.Second))         // adjacencies die
	statesEqual(t, got, want)
}
