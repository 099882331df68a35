package netsim

import (
	"runtime"
	"testing"
	"testing/quick"
	"weak"

	"defined/internal/eventq"
	"defined/internal/msg"
	"defined/internal/topology"
	"defined/internal/vtime"
)

func mkMsg(from, to msg.NodeID, seq uint64) *msg.Message {
	return &msg.Message{
		ID:   msg.ID{Sender: from, Seq: seq},
		From: from, To: to,
		Kind: msg.KindApp,
	}
}

func TestDeliveryAfterLinkDelay(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	var got []*msg.Message
	var at vtime.Time
	s.Attach(1, func(m *msg.Message) { got = append(got, m); at = s.Now() })
	if !s.Send(mkMsg(0, 1, 1)) {
		t.Fatal("send should succeed")
	}
	s.Run(vtime.Time(vtime.Second))
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	if at != vtime.Time(10*vtime.Millisecond) {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if s.Now() != vtime.Time(vtime.Second) {
		t.Fatalf("Run should advance clock to until: %v", s.Now())
	}
}

func TestSendOverMissingLinkPanics(t *testing.T) {
	g := topology.Line(3, vtime.Millisecond)
	s := New(g, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-adjacent send")
		}
	}()
	s.Send(mkMsg(0, 2, 1))
}

func TestFIFOPerLink(t *testing.T) {
	g := topology.Line(2, 5*vtime.Millisecond)
	s := New(g, Config{Seed: 99, JitterScale: 10}) // heavy jitter
	var order []uint64
	s.Attach(1, func(m *msg.Message) { order = append(order, m.ID.Seq) })
	for i := uint64(0); i < 50; i++ {
		s.Send(mkMsg(0, 1, i))
	}
	s.RunQuiescent(1000)
	if len(order) != 50 {
		t.Fatalf("delivered %d, want 50", len(order))
	}
	for i, seq := range order {
		if seq != uint64(i) {
			t.Fatalf("FIFO violated at %d: got seq %d", i, seq)
		}
	}
}

func TestCrossSenderReorderingWithJitter(t *testing.T) {
	// Star: two spokes send to the hub; jitter can interleave them in
	// different orders depending on the seed. This is the nondeterminism
	// DEFINED-RB exists to mask.
	g := topology.Star(3, 5*vtime.Millisecond)
	interleavings := map[string]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		s := New(g, Config{Seed: seed, JitterScale: 5})
		var order []byte
		s.Attach(0, func(m *msg.Message) { order = append(order, byte('a'+m.From-1)) })
		for i := uint64(0); i < 4; i++ {
			s.Send(mkMsg(1, 0, i))
			s.Send(mkMsg(2, 0, i))
		}
		s.RunQuiescent(1000)
		interleavings[string(order)] = true
	}
	if len(interleavings) < 2 {
		t.Fatal("expected jitter to produce multiple interleavings across seeds")
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	g := topology.Star(4, 3*vtime.Millisecond)
	run := func(seed uint64) []string {
		s := New(g, Config{Seed: seed, JitterScale: 2})
		var order []string
		for n := msg.NodeID(0); n < 4; n++ {
			n := n
			s.Attach(n, func(m *msg.Message) { order = append(order, m.String()) })
		}
		for i := uint64(0); i < 10; i++ {
			s.Send(mkMsg(1, 0, i))
			s.Send(mkMsg(2, 0, i))
			s.Send(mkMsg(3, 0, i))
		}
		s.RunQuiescent(10000)
		return order
	}
	a, b := run(5), run(5)
	if len(a) != len(b) {
		t.Fatal("same seed produced different delivery counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestLinkDownDropsAtSendAndInFlight(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	delivered := 0
	s.Attach(1, func(m *msg.Message) { delivered++ })

	// In-flight loss: send, then take the link down before delivery.
	s.Send(mkMsg(0, 1, 1))
	s.ScheduleFn(s.Now().Add(vtime.Millisecond), func() {
		if err := s.SetLinkState(0, 1, false); err != nil {
			t.Errorf("SetLinkState: %v", err)
		}
	})
	s.RunQuiescent(100)
	if delivered != 0 {
		t.Fatal("packet should be lost when link fails in flight")
	}
	if s.Stats(1).DroppedRx != 1 {
		t.Fatalf("receiver droppedRx = %d, want 1", s.Stats(1).DroppedRx)
	}

	// Send on a down link: dropped at send.
	if s.Send(mkMsg(0, 1, 2)) {
		t.Fatal("send on down link should report false")
	}
	if s.Stats(0).DroppedTx != 1 {
		t.Fatalf("sender droppedTx = %d, want 1", s.Stats(0).DroppedTx)
	}

	// Repair and verify traffic flows again.
	if err := s.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	s.Send(mkMsg(0, 1, 3))
	s.RunQuiescent(100)
	if delivered != 1 {
		t.Fatalf("delivered = %d after repair", delivered)
	}
}

func TestSetLinkStateUnknown(t *testing.T) {
	g := topology.Line(3, vtime.Millisecond)
	s := New(g, Config{})
	if err := s.SetLinkState(0, 2, false); err == nil {
		t.Fatal("expected error for unknown link")
	}
	if s.LinkState(0, 2) {
		t.Fatal("missing link should read as down")
	}
	if !s.LinkState(0, 1) {
		t.Fatal("existing link should default up")
	}
}

func TestNodeDownDropsDelivery(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	delivered := 0
	s.Attach(1, func(m *msg.Message) { delivered++ })
	s.SetNodeState(1, false)
	if s.NodeState(1) {
		t.Fatal("node should be down")
	}
	if s.Send(mkMsg(0, 1, 1)) {
		t.Fatal("send to down node should fail fast")
	}
	s.SetNodeState(1, true)
	s.Send(mkMsg(0, 1, 2))
	s.ScheduleFn(s.Now().Add(0), func() { s.SetNodeState(1, false) })
	s.RunQuiescent(100)
	if delivered != 0 {
		t.Fatal("down node must not receive")
	}
}

func TestScheduleFnAndCancel(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{})
	fired := []int{}
	s.ScheduleFn(30, func() { fired = append(fired, 3) })
	s.ScheduleFn(10, func() { fired = append(fired, 1) })
	ev := s.ScheduleFn(20, func() { fired = append(fired, 2) })
	s.LaneFor(0).Cancel(ev)
	s.RunQuiescent(100)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	// Scheduling in the past clamps to now.
	s.ScheduleFn(0, func() { fired = append(fired, 0) })
	s.RunQuiescent(100)
	if len(fired) != 3 {
		t.Fatal("past-scheduled fn should still fire")
	}
}

func TestStatsCounting(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	s.Attach(1, func(m *msg.Message) {})
	for i := uint64(0); i < 5; i++ {
		s.Send(mkMsg(0, 1, i))
	}
	s.RunQuiescent(100)
	if s.Stats(0).Sent != 5 {
		t.Fatalf("sent = %d", s.Stats(0).Sent)
	}
	if s.Stats(1).Received != 5 {
		t.Fatalf("received = %d", s.Stats(1).Received)
	}
	if s.Stats(1).ByKindIn[msg.KindApp] != 5 {
		t.Fatalf("by-kind in = %d", s.Stats(1).ByKindIn[msg.KindApp])
	}
	if s.TotalReceived() != 5 {
		t.Fatalf("total received = %d", s.TotalReceived())
	}
	s.ResetStats()
	if s.Stats(0).Sent != 0 || s.Stats(1).Received != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestDropProb(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Seed: 1, DropProb: 0.5, Deterministic: true})
	delivered := 0
	s.Attach(1, func(m *msg.Message) { delivered++ })
	for i := uint64(0); i < 200; i++ {
		s.Send(mkMsg(0, 1, i))
	}
	s.RunQuiescent(1000)
	if delivered < 50 || delivered > 150 {
		t.Fatalf("with 50%% loss delivered = %d of 200", delivered)
	}
}

func TestPendingAndInFlight(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	s.Attach(1, func(m *msg.Message) {})
	s.Send(mkMsg(0, 1, 1))
	s.ScheduleFn(vtime.Time(50*vtime.Millisecond), func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	if s.InFlight() != 1 {
		t.Fatalf("in flight = %d", s.InFlight())
	}
	if s.NextAt() != vtime.Time(vtime.Millisecond) {
		t.Fatalf("NextAt = %v", s.NextAt())
	}
	s.RunQuiescent(10)
	if s.Pending() != 0 || s.InFlight() != 0 {
		t.Fatal("queue should drain")
	}
	if s.NextAt() != vtime.Never {
		t.Fatal("NextAt on empty should be Never")
	}
	if s.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestRunQuiescentBudget(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	// Self-perpetuating timer chain never quiesces.
	var loop func()
	loop = func() { s.ScheduleFn(s.Now().Add(vtime.Millisecond), loop) }
	loop()
	n, quiesced := s.RunQuiescent(10)
	if quiesced {
		t.Fatal("should not quiesce")
	}
	if n != 10 {
		t.Fatalf("processed %d, want 10", n)
	}
}

// Property: with any seed, messages on a single directed link are delivered
// in send order (FIFO), and all are delivered when links stay up.
func TestFIFOProperty(t *testing.T) {
	g := topology.Line(2, 2*vtime.Millisecond)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		s := New(g, Config{Seed: seed, JitterScale: 4})
		var order []uint64
		s.Attach(1, func(m *msg.Message) { order = append(order, m.ID.Seq) })
		for i := 0; i < n; i++ {
			s.Send(mkMsg(0, 1, uint64(i)))
		}
		s.RunQuiescent(100000)
		if len(order) != n {
			return false
		}
		for i, seq := range order {
			if seq != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Drop ownership: a single loss is counted exactly once, on exactly one
// side — send-time drops at the sender (DroppedTx), delivery-time drops at
// the receiver (DroppedRx).
func TestDropAccountingOwnership(t *testing.T) {
	g := topology.Line(2, 10*vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	s.Attach(1, func(m *msg.Message) {})

	// Send-time drop: link already down when the packet would leave.
	if err := s.SetLinkState(0, 1, false); err != nil {
		t.Fatal(err)
	}
	s.Send(mkMsg(0, 1, 1))
	if tx, rx := s.Stats(0).DroppedTx, s.Stats(0).DroppedRx; tx != 1 || rx != 0 {
		t.Fatalf("sender after send-time drop: tx=%d rx=%d, want 1/0", tx, rx)
	}
	if tx, rx := s.Stats(1).DroppedTx, s.Stats(1).DroppedRx; tx != 0 || rx != 0 {
		t.Fatalf("receiver after send-time drop: tx=%d rx=%d, want 0/0", tx, rx)
	}

	// Delivery-time drop: link fails while the packet is in flight.
	if err := s.SetLinkState(0, 1, true); err != nil {
		t.Fatal(err)
	}
	s.Send(mkMsg(0, 1, 2))
	s.ScheduleFn(s.Now().Add(vtime.Millisecond), func() { _ = s.SetLinkState(0, 1, false) })
	s.RunQuiescent(100)
	if tx, rx := s.Stats(0).DroppedTx, s.Stats(0).DroppedRx; tx != 1 || rx != 0 {
		t.Fatalf("sender after in-flight drop: tx=%d rx=%d, want 1/0", tx, rx)
	}
	if tx, rx := s.Stats(1).DroppedTx, s.Stats(1).DroppedRx; tx != 0 || rx != 1 {
		t.Fatalf("receiver after in-flight drop: tx=%d rx=%d, want 0/1", tx, rx)
	}
	if s.Stats(0).Dropped() != 1 || s.Stats(1).Dropped() != 1 {
		t.Fatalf("totals: sender=%d receiver=%d, want 1/1", s.Stats(0).Dropped(), s.Stats(1).Dropped())
	}
}

// Golden cross-seed FIFO test: for every seed, with jitter far larger than
// the link delay, the clamp must keep each directed link FIFO (a packet
// never overtakes its predecessor), and the same seed must reproduce the
// identical delivery schedule.
func TestFIFOClampGoldenCrossSeed(t *testing.T) {
	g := topology.Star(4, 2*vtime.Millisecond)
	run := func(seed uint64) []string {
		s := New(g, Config{Seed: seed, JitterScale: 8})
		var sched []string
		lastSeq := map[[2]msg.NodeID]uint64{}
		for n := msg.NodeID(0); n < 4; n++ {
			n := n
			s.Attach(n, func(m *msg.Message) {
				dl := [2]msg.NodeID{m.From, m.To}
				if prev, ok := lastSeq[dl]; ok && m.ID.Seq <= prev {
					t.Fatalf("seed %d: packet %d overtook %d on link %d→%d",
						seed, m.ID.Seq, prev, m.From, m.To)
				}
				lastSeq[dl] = m.ID.Seq
				sched = append(sched, m.String())
			})
		}
		// Bidirectional traffic on every spoke: hub→spoke and spoke→hub
		// are distinct directed links and are clamped independently.
		for i := uint64(1); i <= 25; i++ {
			for spoke := msg.NodeID(1); spoke < 4; spoke++ {
				s.Send(mkMsg(spoke, 0, i))
				s.Send(mkMsg(0, spoke, i))
			}
		}
		s.RunQuiescent(10000)
		return sched
	}
	for seed := uint64(0); seed < 10; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != 150 {
			t.Fatalf("seed %d: delivered %d of 150", seed, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d not reproducible at %d: %s vs %s", seed, i, a[i], b[i])
			}
		}
	}
}

// Control messages are recycled through the pool once their handler
// returns and the sender has released its reference; the pool hands the
// same struct back for the next control send.
func TestControlMessagePoolRecycling(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{Deterministic: true})
	var seen *msg.Message
	s.Attach(1, func(m *msg.Message) { seen = m })

	anti := s.Pool().Get()
	anti.ID = msg.ID{Sender: 0, Seq: 1}
	anti.From, anti.To, anti.Kind = 0, 1, msg.KindAnti
	if !s.Send(anti) {
		t.Fatal("control send should succeed")
	}
	anti.Release() // in-flight reference carries it from here
	if got := anti.Refs(); got != 1 {
		t.Fatalf("in-flight refs = %d, want 1", got)
	}
	s.RunQuiescent(10)
	if seen != anti {
		t.Fatal("handler should have seen the control message")
	}
	if s.Pool().Len() != 1 {
		t.Fatalf("pool len = %d after control delivery, want 1", s.Pool().Len())
	}
	if s.Pool().Live() != 0 {
		t.Fatalf("pool live = %d after control delivery, want 0", s.Pool().Live())
	}
	if anti.Kind != msg.KindApp || anti.From != 0 || anti.To != 0 {
		t.Fatal("recycled message should be zeroed")
	}
	if got := s.Pool().Get(); got != anti {
		t.Fatal("pool should reuse the recycled struct")
	}
}

// Rearm slides a scheduled fn to a new fire time without reallocating its
// event; past times clamp to now and stale handles report false. In
// sequential mode every node's lane is the driver's, so a handle from
// Sim.ScheduleFn re-arms through it.
func TestRearmSlidesScheduledFn(t *testing.T) {
	g := topology.Line(2, vtime.Millisecond)
	s := New(g, Config{})
	var fired []vtime.Time
	h := s.ScheduleFn(30, func() { fired = append(fired, s.Now()) })
	s.ScheduleFn(20, func() { fired = append(fired, s.Now()) })
	if !s.LaneFor(0).Rearm(h, 10) {
		t.Fatal("live handle must re-arm")
	}
	s.RunQuiescent(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
	if s.LaneFor(0).Rearm(h, 40) {
		t.Fatal("fired handle must not re-arm")
	}
	// Re-arming into the past clamps to now.
	h2 := s.ScheduleFn(50, func() { fired = append(fired, s.Now()) })
	if !s.LaneFor(0).Rearm(h2, 5) {
		t.Fatal("re-arm with past time must clamp, not fail")
	}
	s.RunQuiescent(100)
	if len(fired) != 3 || fired[2] != 20 {
		t.Fatalf("fired = %v, want clamped fire at now (20)", fired)
	}
}

// TestLinkFrontierMonotonic checks the in-flight half of the per-link
// lookahead bound: the directed link frontier is the last scheduled
// arrival, so it must advance strictly monotonically under the FIFO clamp
// (even with heavy jitter trying to reorder packets) and must stay
// per-direction — traffic one way never moves the reverse frontier.
func TestLinkFrontierMonotonic(t *testing.T) {
	// linkFrontier is the directed from→to frontier: the last scheduled
	// arrival on that direction, zero before any packet is sent.
	linkFrontier := func(s *Sim, from, to msg.NodeID) vtime.Time {
		return s.lastArr[dirIndex(s.G.LinkIndex(int(from), int(to)), from, to)]
	}
	g := topology.Line(2, 5*vtime.Millisecond)
	s := New(g, Config{Seed: 99, JitterScale: 10})
	s.Attach(1, func(m *msg.Message) {})
	if f := linkFrontier(s, 0, 1); f != 0 {
		t.Fatalf("frontier before any send = %v, want 0", f)
	}
	prev := vtime.Time(0)
	for i := uint64(0); i < 50; i++ {
		s.Send(mkMsg(0, 1, i))
		f := linkFrontier(s, 0, 1)
		if f <= prev {
			t.Fatalf("send %d: frontier %v did not advance past %v", i, f, prev)
		}
		prev = f
	}
	if f := linkFrontier(s, 1, 0); f != 0 {
		t.Fatalf("reverse frontier moved to %v on forward traffic", f)
	}
	// Delivery drains the link but never rewinds the frontier: it remains
	// the last scheduled arrival, a permanent lower bound for new sends.
	s.RunQuiescent(1000)
	if f := linkFrontier(s, 0, 1); f != prev {
		t.Fatalf("frontier after drain = %v, want %v (last scheduled arrival)", f, prev)
	}
}

// A sharded Sim must be collectable once its caller drops it. Every Lane
// points back at its Sim, so a finalizer on the Sim (the old way its
// worker channel was closed) kept the whole engine alive for good: a
// process that built one sharded network after another grew by one
// network each time.
func TestShardedSimIsCollected(t *testing.T) {
	build := func() weak.Pointer[Sim] {
		s := New(topology.Line(4, vtime.Millisecond), Config{Deterministic: true, Shards: 2})
		for n := 0; n < 4; n++ {
			s.Attach(msg.NodeID(n), func(*msg.Message) {})
		}
		s.Send(mkMsg(0, 1, 1))
		s.Send(mkMsg(3, 2, 1))
		s.Run(vtime.Time(vtime.Second))
		return weak.Make(s)
	}
	wp := build()
	for i := 0; i < 3 && wp.Value() != nil; i++ {
		runtime.GC()
	}
	if wp.Value() != nil {
		t.Fatal("a dropped sharded Sim is still reachable after GC")
	}
}

// nopCaller is a pooled-style Caller: pushing it boxes nothing.
type nopCaller struct{}

func (*nopCaller) Fire() {}

// Scheduling through the one path allocates nothing in steady state, in
// sequential mode and sharded: Sim.ScheduleFn with a prebuilt closure (the
// Func adapter boxes no closure) and a lane's ScheduleCall, Rearm and
// Cancel, from the driver.
func TestSchedulingAllocFree(t *testing.T) {
	for _, shards := range []int{0, 2} {
		s := New(topology.Line(4, vtime.Millisecond), Config{Deterministic: true, Shards: shards})
		fn := func() {}
		c := &nopCaller{}
		lane := s.LaneFor(3)
		// Warm both queues' slabs.
		s.lane0.Cancel(s.ScheduleFn(10, fn))
		lane.Cancel(lane.ScheduleCall(10, c))
		at := vtime.Time(10)
		for _, op := range []struct {
			name string
			run  func()
		}{
			{"Sim.ScheduleFn+Cancel", func() { s.lane0.Cancel(s.ScheduleFn(at, fn)) }},
			{"Lane.ScheduleCall+Cancel", func() { lane.Cancel(lane.ScheduleCall(at, c)) }},
			{"Lane.ScheduleCall(Func)+Rearm+Cancel", func() {
				h := lane.ScheduleCall(at, eventq.Func(fn))
				lane.Rearm(h, at+5)
				lane.Cancel(h)
			}},
		} {
			if avg := testing.AllocsPerRun(100, op.run); avg != 0 {
				t.Errorf("shards=%d: %s allocates %.1f objects/op, want 0", shards, op.name, avg)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("shards=%d: %d events left pending", shards, s.Pending())
		}
	}
}

// Dropped is the node's total loss count (both directions).
func (st *NodeStats) Dropped() uint64 { return st.DroppedTx + st.DroppedRx }

// NodeState reports whether node n is up.
func (s *Sim) NodeState(n msg.NodeID) bool { return s.nodeUp[n] }

// TotalReceived sums received packet counts over all nodes.
func (s *Sim) TotalReceived() uint64 {
	var t uint64
	for i := range s.stats {
		t += s.stats[i].Received
	}
	return t
}
