package defined_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"defined"
	"defined/internal/routing/ospf"
	"defined/internal/scenario"
)

// ptr builds the pointer literals an engine block's explicit values are.
func ptr[T any](v T) *T { return &v }

// engineMod edits an engine block; the golden helpers layer these over
// their base block, so a leg reads as "the base run, but with ...".
type engineMod = func(*defined.EngineSpec)

func withShards(n int) engineMod { return func(e *defined.EngineSpec) { e.Shards = &n } }

func withLookahead(e *defined.EngineSpec) { e.Lookahead = ptr(true) }

func ospfApps(n int) []defined.Application {
	apps := make([]defined.Application, n)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	return apps
}

// mustNet builds a network, failing the test on a spec validation error.
func mustNet(tb testing.TB, g *defined.Topology, apps []defined.Application, eng defined.EngineSpec) *defined.Network {
	tb.Helper()
	net, err := defined.NewNetwork(g, apps, eng)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestPublicAPIEndToEnd exercises the full documented workflow: production
// run with recording, deterministic committed orders across seeds, replay
// reproducing the execution, interactive session.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := defined.Brite(10, 2, 3)

	run := func(seed uint64) (*defined.Network, *defined.Recording) {
		net := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{
			Seed:        &seed,
			JitterScale: ptr(3.0),
			Record:      ptr(true),
			DeliveryLog: ptr(true),
		})
		l := g.Links[0]
		net.At(defined.Seconds(0.01), func() {
			if err := net.InjectLinkChange(l.A, l.B, false); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
		net.At(defined.Seconds(0.6), func() {
			if err := net.InjectLinkChange(l.A, l.B, true); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
		net.Run(defined.Seconds(2))
		if !net.Drain() {
			t.Fatal("network did not drain")
		}
		return net, net.Recording()
	}

	netA, rec := run(1)
	netB, _ := run(2)

	// Determinism across seeds (same externals).
	for i := 0; i < g.N; i++ {
		a := netA.CommittedOrder(defined.NodeID(i))
		b := netB.CommittedOrder(defined.NodeID(i))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("node %d: committed orders differ across seeds", i)
		}
	}

	// Replay reproduces the recorded run.
	rp, err := defined.NewReplay(g, ospfApps(g.N), rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := rp.RunToEnd(); n == 0 || !rp.Done() {
		t.Fatalf("replay: %d deliveries, done=%v", n, rp.Done())
	}
	for i := 0; i < g.N; i++ {
		if !reflect.DeepEqual(netA.CommittedOrder(defined.NodeID(i)), rp.DeliveredOrder(defined.NodeID(i))) {
			t.Fatalf("node %d: replay diverged from production", i)
		}
	}

	// Final routing state matches production.
	for i := 0; i < g.N; i++ {
		prod := netA.App(defined.NodeID(i)).(*ospf.Daemon).DumpTable()
		rep := rp.App(defined.NodeID(i)).(*ospf.Daemon).DumpTable()
		if prod != rep {
			t.Fatalf("node %d: routing tables differ\nprod:\n%s\nreplay:\n%s", i, prod, rep)
		}
	}
}

// TestReplayROWithOwnOrderingSeed records an RO run whose ordering seed
// differs from its jitter seed and replays the recording alone: the
// recording must carry the ordering seed, so every node's replayed
// delivery sequence equals its committed order.
func TestReplayROWithOwnOrderingSeed(t *testing.T) {
	g := defined.Ebone()
	net := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{
		Ordering:     "RO",
		Seed:         ptr(uint64(1)),
		OrderingSeed: ptr(uint64(777)),
		Record:       ptr(true),
		DeliveryLog:  ptr(true),
	})
	l := g.Links[3]
	net.At(defined.Seconds(0.3), func() {
		if err := net.InjectLinkChange(l.A, l.B, false); err != nil {
			t.Errorf("inject: %v", err)
		}
	})
	net.Run(defined.Seconds(2))
	if !net.Drain() {
		t.Fatal("network did not drain")
	}
	rec := net.Recording()
	if rec.Ordering != "RO" || rec.Seed != 777 {
		t.Errorf("recording names ordering %s seed %d, want RO seed 777", rec.Ordering, rec.Seed)
	}
	rp, err := defined.NewReplay(g, ospfApps(g.N), rec)
	if err != nil {
		t.Fatal(err)
	}
	rp.RunToEnd()
	for i := 0; i < g.N; i++ {
		id := defined.NodeID(i)
		if want, got := net.CommittedOrder(id), rp.DeliveredOrder(id); !reflect.DeepEqual(want, got) {
			t.Errorf("node %d: replay delivered %d entries, production committed %d, orders differ",
				i, len(got), len(want))
		}
	}
}

// TestZeroJitterScaleIgnoresSeed holds the engine block's jitterScale 0 to
// what it says: no jitter, so the seed (which drives only jitter on a
// loss-free OO run) moves nothing, down to the rollback counters. At the
// default scale the same runs differ, which is what makes the check bite.
func TestZeroJitterScaleIgnoresSeed(t *testing.T) {
	g := defined.Ebone()
	stats := func(scale float64, seed uint64) defined.Stats {
		net := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{Seed: &seed, JitterScale: &scale})
		l := g.Links[3]
		net.At(defined.Seconds(0.3), func() { _ = net.InjectLinkChange(l.A, l.B, false) })
		net.Run(defined.Seconds(2))
		if !net.Drain() {
			t.Fatal("network did not drain")
		}
		return net.Stats()
	}
	base := stats(0, 1)
	if base.Deliveries == 0 {
		t.Fatal("run delivered nothing")
	}
	for _, seed := range []uint64{2, 3} {
		if got := stats(0, seed); !reflect.DeepEqual(got, base) {
			t.Errorf("jitterScale 0, seed %d: stats %+v, seed 1 gave %+v", seed, got, base)
		}
	}
	jittered := stats(1, 1)
	if reflect.DeepEqual(stats(1, 2), jittered) && reflect.DeepEqual(stats(1, 3), jittered) {
		t.Error("jitterScale 1: seeds 1-3 gave identical stats; the check cannot tell jitter from none")
	}
}

func TestReplayBreakpointAndDebugSession(t *testing.T) {
	g := defined.Brite(8, 2, 5)
	net := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{Record: ptr(true), Seed: ptr(uint64(4))})
	l := g.Links[1]
	net.At(defined.Seconds(0.05), func() { _ = net.InjectLinkChange(l.A, l.B, false) })
	net.Run(defined.Seconds(1))
	net.Drain()
	rec := net.Recording()

	rp, err := defined.NewReplay(g, ospfApps(g.N), rec)
	if err != nil {
		t.Fatal(err)
	}
	rp.SetBreakpoint(func(d defined.Delivery) bool { return d.Msg != nil })
	rp.RunToEnd()
	if rp.BreakpointHit() == nil {
		t.Fatal("breakpoint did not fire")
	}
	rp.SetBreakpoint(nil)

	var out bytes.Buffer
	rp.Debug(strings.NewReader("where\nstate 0\ncontinue\nquit\n"), &out)
	if !strings.Contains(out.String(), "replay complete") {
		t.Fatalf("debug session output:\n%s", out.String())
	}
	if len(rp.Steps()) == 0 {
		t.Fatal("no step summaries")
	}
}

func TestBaselineAndOrderingOptions(t *testing.T) {
	g := defined.Brite(8, 2, 7)
	base := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{Baseline: ptr(true), Seed: ptr(uint64(1))})
	base.Run(defined.Seconds(1.5))
	base.Drain()
	if base.Stats().Rollbacks != 0 {
		t.Fatal("baseline must not roll back")
	}
	if base.PacketsReceived(0) == 0 {
		t.Fatal("baseline should still carry traffic")
	}

	ro := mustNet(t, g, ospfApps(g.N),
		defined.EngineSpec{Ordering: "RO", OrderingSeed: ptr(uint64(9)), Seed: ptr(uint64(1))})
	ro.Run(defined.Seconds(1.5))
	ro.Drain()
	oo := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{Seed: ptr(uint64(1))})
	oo.Run(defined.Seconds(1.5))
	oo.Drain()
	if ro.Stats().Rollbacks <= oo.Stats().Rollbacks {
		t.Fatalf("RO (%d) should roll back more than OO (%d)",
			ro.Stats().Rollbacks, oo.Stats().Rollbacks)
	}

	oo.ResetPacketCounters()
	if oo.PacketsReceived(0) != 0 {
		t.Fatal("reset should zero counters")
	}

	// A wrong application count is an error naming both counts, not a
	// panic out of the engine.
	_, err := defined.NewNetwork(g, ospfApps(g.N-1), defined.EngineSpec{})
	if err == nil || !strings.Contains(err.Error(), "7 applications") || !strings.Contains(err.Error(), "8 nodes") {
		t.Fatalf("app-count mismatch: got %v, want an error naming 7 applications and 8 nodes", err)
	}

	// A contradictory engine block is rejected with the message
	// Spec.Resolve gives the same block inside a scenario (the two differ
	// only in the scenario name they lead with).
	bad := defined.EngineSpec{Baseline: ptr(true), Shards: ptr(4)}
	_, netErr := defined.NewNetwork(g, ospfApps(g.N), bad)
	_, specErr := defined.Spec{
		Name:      "bad",
		Topology:  scenario.TopologyRef{Kind: "sprintlink"},
		Protocols: scenario.ProtocolSpec{OSPF: &scenario.OSPFSpec{}},
		Engine:    bad,
		Horizon:   scenario.HorizonSpec{Run: scenario.Duration(defined.Second)},
	}.Resolve()
	if netErr == nil || specErr == nil {
		t.Fatalf("baseline with shards accepted: NewNetwork %v, Resolve %v", netErr, specErr)
	}
	if got, want := strings.TrimPrefix(netErr.Error(), "scenario (engine): "),
		strings.TrimPrefix(specErr.Error(), "scenario bad: "); got != want || !strings.Contains(got, "baseline with shards=4") {
		t.Fatalf("NewNetwork says %q, Spec.Resolve says %q", netErr, specErr)
	}
}

func TestCustomTopologyAndHelpers(t *testing.T) {
	g, err := defined.NewTopology("pair", 2, []defined.Link{
		{A: 0, B: 1, Delay: 5 * defined.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 {
		t.Fatal("bad topology")
	}
	if defined.Seconds(1.5) != defined.Time(1_500_000) {
		t.Fatal("Seconds conversion wrong")
	}
	for _, tp := range []*defined.Topology{defined.Sprintlink(), defined.Ebone(), defined.Level3()} {
		if tp.N == 0 {
			t.Fatal("empty named topology")
		}
	}
}
