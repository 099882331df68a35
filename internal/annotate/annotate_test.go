package annotate

import (
	"reflect"
	"testing"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

func sender() *Sender {
	g := topology.Line(3, 10*vtime.Millisecond)
	return NewSender(1, g, 4, 200*vtime.Microsecond, 0)
}

func TestFreshBuild(t *testing.T) {
	s := sender()
	m := s.Build(msg.Out{To: 2, Payload: "x"}, &Cause{Fresh: true, Group: 7, Offset: 3 * vtime.Millisecond})
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
	m2 := s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 7})
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
	m := s.Build(msg.Out{To: 0}, &Cause{Parent: parent, Group: 3})
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
	m := s.Build(msg.Out{To: 0}, &Cause{Parent: parent, Group: 3})
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
	m := s.Build(msg.Out{To: 0, Fresh: true}, &Cause{Parent: parent, Group: 3, Offset: vtime.Millisecond})
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
	s.Build(msg.Out{To: 9}, &Cause{Fresh: true})
}

func TestCountersSnapshotRestore(t *testing.T) {
	s := sender()
	s.Build(msg.Out{To: 0}, &Cause{Fresh: true, Group: 1})
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	var snap Counters
	s.CopyCounters(&snap)
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
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
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	if snap.LinkSeq[1] != 1 { // slot 1 = neighbor 2 (sorted neighbors of node 1 are [0, 2])
		t.Fatal("snapshot aliased live counters")
	}
	// Replay after restore regenerates identical annotations.
	m := s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	if m.Ann.Seq != 3 {
		t.Fatalf("replayed seq = %d", m.Ann.Seq)
	}
}

func TestCounterJournalRewind(t *testing.T) {
	s := sender()
	s.JournalEnable()
	s.Build(msg.Out{To: 0}, &Cause{Fresh: true, Group: 1})
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	mark := s.JournalMark()
	var snap Counters
	s.CopyCounters(&snap)

	// A mix of fresh and chained builds past the mark.
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	parent := msg.Annotation{Origin: 0, Seq: 9, Group: 1, Chain: 1}
	s.Build(msg.Out{To: 0}, &Cause{Parent: parent, Group: 1})
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
	m := s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	if m.Ann.Seq != 2 || m.LinkSeq != 1 {
		t.Fatalf("replayed seq/linkseq = %d/%d", m.Ann.Seq, m.LinkSeq)
	}
}

func TestCounterJournalCompact(t *testing.T) {
	s := sender()
	s.JournalEnable()
	s.Build(msg.Out{To: 0}, &Cause{Fresh: true, Group: 1})
	settled := s.JournalMark()
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})
	live := s.JournalMark()
	var snap Counters
	s.CopyCounters(&snap)
	s.Build(msg.Out{To: 2}, &Cause{Fresh: true, Group: 1})

	s.JournalCompact(settled)
	s.JournalRewind(live)
	if s.OriginSeq != snap.OriginSeq || s.SeqTo(2) != snap.LinkSeq[1] {
		t.Fatalf("counters after compact+rewind: %d %v", s.OriginSeq, s.LinkSeq)
	}
}

// handlerApp records which handler a delivery reached and with what, and
// answers every event with one output to node 2.
type handlerApp struct {
	called string
	at     vtime.Time
	ext    api.ExternalEvent
	m      *msg.Message
}

func (a *handlerApp) out() []msg.Out { return []msg.Out{{To: 2}} }

func (a *handlerApp) Init(msg.NodeID, []api.Neighbor) {}
func (a *handlerApp) HandleTimer(now vtime.Time) []msg.Out {
	a.called, a.at = "timer", now
	return a.out()
}
func (a *handlerApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	a.called, a.ext = "external", ev
	return a.out()
}
func (a *handlerApp) HandleMessage(m *msg.Message) []msg.Out {
	a.called, a.m = "message", m
	return a.out()
}
func (a *handlerApp) State() api.State  { return nil }
func (a *handlerApp) Restore(api.State) {}

// TestDeliverDerivesCause is the one delivery rule both engines share,
// case by case: the key's class picks the handler, the Cause it returns
// anchors a timer batch's chains at the node's skew and an external's at
// its recorded offset, in the key's group, and makes a message the parent
// of its outputs — which Prepare rolls into the next group once the chain
// reaches the bound.
func TestDeliverDerivesCause(t *testing.T) {
	ms := vtime.Millisecond
	hop := 10*ms + 200*vtime.Microsecond // Line(3)'s link plus the proc estimate
	skew := 2 * ms
	link := api.LinkChange{Peer: 0}
	parent := msg.Annotation{Origin: 0, Seq: 5, Delay: 12 * ms, Group: 3, Chain: 1}
	deep := msg.Annotation{Origin: 0, Seq: 6, Delay: 40 * ms, Group: 3, Chain: 3} // bound 4
	for _, tc := range []struct {
		name    string
		key     ordering.Key
		m       *msg.Message
		ext     api.ExternalEvent
		offset  vtime.Duration
		handler string
		cause   Cause
		ann     msg.Annotation // of the one output, as Prepare annotates it
	}{
		{name: "timer", key: ordering.TimerKey(7, 1), offset: 9 * ms, handler: "timer",
			cause: Cause{Fresh: true, Group: 7, Offset: skew},
			ann:   msg.Annotation{Origin: 1, Delay: skew + hop, Group: 7}},
		{name: "external", key: ordering.ExternalKey(7, 1, 0), ext: link, offset: 9 * ms, handler: "external",
			cause: Cause{Fresh: true, Group: 7, Offset: 9 * ms},
			ann:   msg.Annotation{Origin: 1, Delay: 9*ms + hop, Group: 7}},
		{name: "message", key: ordering.KeyOfSend(0, parent, 0), m: &msg.Message{From: 0, Ann: parent}, offset: 9 * ms, handler: "message",
			cause: Cause{Parent: parent, Group: 3},
			ann:   msg.Annotation{Origin: 0, Seq: 5, Delay: 12*ms + hop, Group: 3, Chain: 2}},
		{name: "rollover", key: ordering.KeyOfSend(0, deep, 0), m: &msg.Message{From: 0, Ann: deep}, handler: "message",
			cause: Cause{Parent: deep, Group: 3},
			ann:   msg.Annotation{Origin: 1, Delay: hop, Group: 4}},
	} {
		s := NewSender(1, topology.Line(3, 10*ms), 4, 200*vtime.Microsecond, skew)
		app := &handlerApp{}
		outs, c := s.Deliver(app, tc.key, tc.m, tc.ext, tc.offset)
		if app.called != tc.handler || len(outs) != 1 {
			t.Fatalf("%s: reached %q with %d outputs, want %q with 1", tc.name, app.called, len(outs), tc.handler)
		}
		switch tc.handler {
		case "timer":
			if app.at != vtime.GroupStart(tc.key.Group, vtime.BeaconInterval) {
				t.Errorf("%s: HandleTimer at %v, want the group boundary", tc.name, app.at)
			}
		case "external":
			if app.ext != tc.ext {
				t.Errorf("%s: HandleExternal got %v", tc.name, app.ext)
			}
		case "message":
			if app.m != tc.m {
				t.Errorf("%s: HandleMessage got another message", tc.name)
			}
		}
		if c != tc.cause {
			t.Errorf("%s: cause %+v, want %+v", tc.name, c, tc.cause)
		}
		if ann, _ := s.Prepare(outs[0], &c); ann != tc.ann {
			t.Errorf("%s: output annotated %+v, want %+v", tc.name, ann, tc.ann)
		}
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
