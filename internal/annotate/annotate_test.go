package annotate

import (
	"reflect"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

func sender() *Sender {
	g := topology.Line(3, 10*vtime.Millisecond)
	return NewSender(1, g, 4, 200*vtime.Microsecond)
}

func TestFreshBuild(t *testing.T) {
	s := sender()
	m := s.Build(msg.Out{To: 2, Payload: "x"}, msg.Annotation{}, true, 7, 3*vtime.Millisecond)
	if m.From != 1 || m.To != 2 || m.Kind != msg.KindApp {
		t.Fatalf("wire fields wrong: %+v", m)
	}
	// d = freshOffset + link + proc estimate.
	want := 3*vtime.Millisecond + 10*vtime.Millisecond + 200*vtime.Microsecond
	if m.Ann.Delay != want {
		t.Fatalf("d = %v, want %v", m.Ann.Delay, want)
	}
	if m.Ann.Origin != 1 || m.Ann.Seq != 0 || m.Ann.Group != 7 || m.Ann.Chain != 0 {
		t.Fatalf("annotation wrong: %+v", m.Ann)
	}
	m2 := s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 7, 0)
	if m2.Ann.Seq != 1 {
		t.Fatal("origin seq must increase")
	}
	if m2.LinkSeq != 1 || m.LinkSeq != 0 {
		t.Fatal("per-link seq must increase")
	}
	if m2.ID.Seq <= m.ID.Seq {
		t.Fatal("wire ids must increase")
	}
}

func TestChildBuild(t *testing.T) {
	s := sender()
	parent := msg.Annotation{Origin: 0, Seq: 5, Delay: 10 * vtime.Millisecond, Group: 3, Chain: 1}
	m := s.Build(msg.Out{To: 0}, parent, false, 3, 0)
	if m.Ann.Origin != 0 || m.Ann.Seq != 5 {
		t.Fatal("child must inherit chain identity")
	}
	if m.Ann.Chain != 2 {
		t.Fatalf("chain depth = %d", m.Ann.Chain)
	}
	want := parent.Delay + 10*vtime.Millisecond + 200*vtime.Microsecond
	if m.Ann.Delay != want {
		t.Fatalf("child d = %v, want %v", m.Ann.Delay, want)
	}
	if s.OriginSeq != 0 {
		t.Fatal("child builds must not consume origin sequence numbers")
	}
}

func TestChainBoundRollsOver(t *testing.T) {
	s := sender() // bound 4
	parent := msg.Annotation{Origin: 0, Seq: 5, Delay: 50 * vtime.Millisecond, Group: 3, Chain: 3}
	m := s.Build(msg.Out{To: 0}, parent, false, 3, 0)
	if m.Ann.Group != 4 {
		t.Fatalf("rollover group = %d, want 4", m.Ann.Group)
	}
	if m.Ann.Origin != 1 || m.Ann.Chain != 0 {
		t.Fatalf("rollover must start a fresh chain: %+v", m.Ann)
	}
	if m.Ann.Delay != 10*vtime.Millisecond+200*vtime.Microsecond {
		t.Fatalf("rollover d = %v", m.Ann.Delay)
	}
}

func TestOutFreshOverrides(t *testing.T) {
	s := sender()
	parent := msg.Annotation{Origin: 0, Seq: 5, Delay: 10 * vtime.Millisecond, Group: 3}
	m := s.Build(msg.Out{To: 0, Fresh: true}, parent, false, 3, vtime.Millisecond)
	if m.Ann.Origin != 1 || m.Ann.Chain != 0 {
		t.Fatal("Out.Fresh must start a new chain")
	}
}

func TestNonNeighborPanics(t *testing.T) {
	s := sender()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Build(msg.Out{To: 9}, msg.Annotation{}, true, 0, 0)
}

func TestCountersSnapshotRestore(t *testing.T) {
	s := sender()
	s.Build(msg.Out{To: 0}, msg.Annotation{}, true, 1, 0)
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	snap := s.SnapshotCounters()
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	if s.OriginSeq != 3 || s.SeqTo(2) != 2 {
		t.Fatalf("counters advanced wrong: %d, %d", s.OriginSeq, s.SeqTo(2))
	}
	wireBefore := s.MsgSeq
	s.RestoreCounters(snap)
	if s.OriginSeq != 2 || s.SeqTo(2) != 1 || s.SeqTo(0) != 1 {
		t.Fatalf("restore wrong: %d, %v", s.OriginSeq, s.LinkSeq)
	}
	if s.MsgSeq != wireBefore {
		t.Fatal("wire ids must NOT roll back")
	}
	// The snapshot must be isolated from later mutation.
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	if snap.LinkSeq[1] != 1 { // slot 1 = neighbor 2 (sorted neighbors of node 1 are [0, 2])
		t.Fatal("snapshot aliased live counters")
	}
	// Replay after restore regenerates identical annotations.
	m := s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	if m.Ann.Seq != 3 {
		t.Fatalf("replayed seq = %d", m.Ann.Seq)
	}
}

func TestCounterJournalRewind(t *testing.T) {
	s := sender()
	s.JournalEnable()
	s.Build(msg.Out{To: 0}, msg.Annotation{}, true, 1, 0)
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	mark := s.JournalMark()
	snap := s.SnapshotCounters()

	// A mix of fresh and chained builds past the mark.
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	parent := msg.Annotation{Origin: 0, Seq: 9, Group: 1, Chain: 1}
	s.Build(msg.Out{To: 0}, parent, false, 1, 0)
	wireBefore := s.MsgSeq

	s.JournalRewind(mark)
	if s.OriginSeq != snap.OriginSeq {
		t.Fatalf("OriginSeq = %d, want %d", s.OriginSeq, snap.OriginSeq)
	}
	for i, v := range snap.LinkSeq {
		if s.LinkSeq[i] != v {
			t.Fatalf("LinkSeq[%d] = %d, want %d", i, s.LinkSeq[i], v)
		}
	}
	if s.MsgSeq != wireBefore {
		t.Fatal("wire ids must NOT roll back")
	}

	// Replay after rewind regenerates identical annotations and link
	// sequences (the reproducibility precondition).
	m := s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	if m.Ann.Seq != 2 || m.LinkSeq != 1 {
		t.Fatalf("replayed seq/linkseq = %d/%d", m.Ann.Seq, m.LinkSeq)
	}
}

func TestCounterJournalCompact(t *testing.T) {
	s := sender()
	s.JournalEnable()
	s.Build(msg.Out{To: 0}, msg.Annotation{}, true, 1, 0)
	settled := s.JournalMark()
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)
	live := s.JournalMark()
	snap := s.SnapshotCounters()
	s.Build(msg.Out{To: 2}, msg.Annotation{}, true, 1, 0)

	s.JournalCompact(settled)
	s.JournalRewind(live)
	if s.OriginSeq != snap.OriginSeq || s.SeqTo(2) != snap.LinkSeq[1] {
		t.Fatalf("counters after compact+rewind: %d %v", s.OriginSeq, s.LinkSeq)
	}
}

// TestBootInputs pins what both engines boot their nodes from: Neighbors
// lists a node's neighbors in id order with api.LinkCost of each link's
// delay, and Skews is the shortest delay from node 0, with 0 for a node
// the leader cannot reach.
func TestBootInputs(t *testing.T) {
	g := topology.FromLinks("boot", 5, []topology.Link{
		{A: 0, B: 2, Delay: 3 * vtime.Millisecond},
		{A: 1, B: 2, Delay: 500 * vtime.Microsecond},
		{A: 0, B: 1, Delay: 10 * vtime.Millisecond},
		{A: 3, B: 4, Delay: vtime.Millisecond},
	})
	got := Neighbors(g, 2)
	want := []api.Neighbor{
		{ID: 0, Cost: api.LinkCost(3 * vtime.Millisecond)},
		{ID: 1, Cost: api.LinkCost(500 * vtime.Microsecond)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(2) = %+v, want %+v", got, want)
	}
	skews := Skews(g)
	wantSkews := []vtime.Duration{0, 3*vtime.Millisecond + 500*vtime.Microsecond, 3 * vtime.Millisecond, 0, 0}
	if !reflect.DeepEqual(skews, wantSkews) {
		t.Fatalf("Skews = %v, want %v", skews, wantSkews)
	}
}
