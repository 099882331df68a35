package rollback

import (
	"testing"

	"defined/internal/msg"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// Shard-boundary tests: the engine-level golden suite (TestShardGolden)
// proves whole-run bit-identity; these tests pin the three boundary
// mechanisms individually, each with an activity assertion so the
// equality cannot pass vacuously.

// diffRun compares a sharded flood run against the sequential reference:
// same per-node delivery logs, same committed keys, same Stats.
func diffRun(t *testing.T, what string, seqLogs, shLogs [][]string, seqE, shE *Engine) {
	t.Helper()
	for n := range seqLogs {
		if len(seqLogs[n]) != len(shLogs[n]) {
			t.Fatalf("%s: node %d delivered %d vs %d values", what, n, len(shLogs[n]), len(seqLogs[n]))
		}
		for i := range seqLogs[n] {
			if seqLogs[n][i] != shLogs[n][i] {
				t.Fatalf("%s: node %d delivery %d: %s vs %s", what, n, i, shLogs[n][i], seqLogs[n][i])
			}
		}
		sk, hk := seqE.CommittedKeys(msg.NodeID(n)), shE.CommittedKeys(msg.NodeID(n))
		if len(sk) != len(hk) {
			t.Fatalf("%s: node %d committed %d vs %d keys", what, n, len(hk), len(sk))
		}
		for i := range sk {
			if sk[i] != hk[i] {
				t.Fatalf("%s: node %d key %d: %+v vs %+v", what, n, i, hk[i], sk[i])
			}
		}
	}
	if s, h := seqE.Stats(), shE.Stats(); s != h {
		t.Fatalf("%s: stats differ:\nsharded:    %+v\nsequential: %+v", what, h, s)
	}
}

// An anti-message sent during a rollback must cross the shard boundary
// like any wire message: logged in the sender's window, merged at the
// commit barrier, annihilating on the destination shard. With one node
// per shard, every anti-message in the run crosses a boundary.
func TestAntiMessageCrossesShardBoundary(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	cfg := EngineSpec{Seed: ptr[uint64](1), DeliveryLog: ptr(true)}
	seqLogs, _, seqE := runScenario(t, g, cfg, 5)
	cfg.Shards = ptr(g.N)
	shLogs, _, shE := runScenario(t, topology.Brite(12, 2, 4), cfg, 5)
	st := shE.Stats()
	if st.AntiMessages == 0 || st.Rollbacks == 0 {
		t.Fatalf("scenario exercised no boundary-crossing antis: %+v", st)
	}
	diffRun(t, "one node per shard", seqLogs, shLogs, seqE, shE)
}

// The deferral buffer is shard-local state: an arrival deferred on its
// destination shard must flush on that shard's timeline even when the
// sender lives elsewhere. Activity assertions guarantee the sharded run
// actually deferred and converted deferrals into avoided rollbacks.
func TestDeferralInheritedAcrossShards(t *testing.T) {
	g := topology.Brite(12, 2, 4)
	cfg := EngineSpec{Seed: ptr[uint64](3), DeliveryLog: ptr(true)}
	seqLogs, _, seqE := runScenario(t, g, cfg, 5)
	cfg.Shards = ptr(4)
	shLogs, _, shE := runScenario(t, topology.Brite(12, 2, 4), cfg, 5)
	st := shE.Stats()
	if st.Deferred == 0 || st.DeferHits == 0 {
		t.Fatalf("scenario exercised no cross-shard deferrals: %+v", st)
	}
	diffRun(t, "deferral across shards", seqLogs, shLogs, seqE, shE)
}

// Horizon stall/release at the runtime level: a link flap dooms queued
// arrivals, which caps the parallel window at the earliest doomed event
// (its delivery-time drop mutates cross-shard state) until the driver
// executes it serially and releases the stall. The flap run must still be
// bit-identical to sequential, and must actually record in-flight drops.
func TestShardHorizonStallsOnDoomedArrivals(t *testing.T) {
	run := func(shards int) ([][]string, *Engine) {
		g := topology.Brite(12, 2, 4)
		as := floodApps(g.N)
		e := New(g, as, EngineSpec{Seed: ptr[uint64](2), DeliveryLog: ptr(true), Record: ptr(true), Shards: ptr(shards)})
		for v := 0; v < 5; v++ {
			v := v
			node := msg.NodeID((v * 7) % g.N)
			e.sim.ScheduleFn(vtime.Time(vtime.Duration(v)*300*vtime.Microsecond), func() {
				e.InjectExternal(node, injectEvent{Value: v})
			})
		}
		// Flap several links while the flood waves are in flight (BRITE
		// link delays run 5-41ms) so some queued arrivals get doomed.
		for i, down := range []vtime.Time{
			vtime.Time(2 * vtime.Millisecond),
			vtime.Time(5 * vtime.Millisecond),
			vtime.Time(8 * vtime.Millisecond),
		} {
			l := g.Links[i]
			e.sim.ScheduleFn(down, func() {
				if err := e.InjectLinkChange(l.A, l.B, false); err != nil {
					t.Error(err)
				}
			})
			e.sim.ScheduleFn(vtime.Time(300*vtime.Millisecond)+down, func() {
				if err := e.InjectLinkChange(l.A, l.B, true); err != nil {
					t.Error(err)
				}
			})
		}
		e.Run(vtime.Time(2 * vtime.Second))
		if !e.RunQuiescent(2_000_000) {
			t.Fatal("network did not quiesce")
		}
		logs := make([][]string, g.N)
		for i := 0; i < g.N; i++ {
			logs[i] = append([]string(nil), as[i].(*floodApp).st.log...)
		}
		return logs, e
	}
	seqLogs, seqE := run(0)
	shLogs, shE := run(4)
	// Recording() flushes surviving drop-log entries into DropsRecorded;
	// flush both engines so the stats comparison stays symmetric.
	seqE.Recording()
	shE.Recording()
	if shE.Stats().DropsRecorded == 0 {
		t.Fatalf("flap doomed no in-flight arrivals: %+v", shE.Stats())
	}
	diffRun(t, "doomed-arrival stall", seqLogs, shLogs, seqE, shE)
}
