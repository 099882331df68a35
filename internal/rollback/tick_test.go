package rollback

import (
	"testing"

	"defined/internal/eventq"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// firedEv is one application handler call, labelled with the (at, seq) of
// the simulator event it ran under.
type firedEv struct {
	at    vtime.Time
	seq   uint64
	node  msg.NodeID
	kind  byte   // 'T' timer batch, 'E' external, 'M' message
	group uint64 // timer batches only
}

// labelApp is floodApp plus a per-node log of every handler call's event
// label; one node per group also floods a value from its timer batch, so
// the order ticks fire in shapes the message traffic behind them. The log
// sits outside the rollbackable state, so it sees replays too.
type labelApp struct {
	floodApp
	eng *Engine
	log []firedEv
}

func (a *labelApp) note(kind byte, group uint64) {
	lane := a.eng.shims[a.self].lane
	a.log = append(a.log, firedEv{at: lane.CurAt(), seq: lane.CurSeq(), node: a.self, kind: kind, group: group})
}

func (a *labelApp) HandleTimer(now vtime.Time) []msg.Out {
	group := vtime.GroupOf(now, vtime.BeaconInterval)
	a.note('T', group)
	if int(group)%len(a.eng.shims) != int(a.self) {
		return nil
	}
	return a.floodApp.HandleExternal(injectEvent{Value: 1000 + int(group)})
}

func (a *labelApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	a.note('E', 0)
	return a.floodApp.HandleExternal(ev)
}

func (a *labelApp) HandleMessage(m *msg.Message) []msg.Out {
	a.note('M', 0)
	return a.floodApp.HandleMessage(m)
}

// loopScheduleGroupTicks is the pre-scheduling loop the self-re-arming tick
// chain replaced — every node's tick for every group boundary in
// (scheduledThrough, until] pushed at Run, node by node, each drawing the
// next insertion sequence — kept verbatim as the oracle for the labels the
// chain must reproduce.
func loopScheduleGroupTicks(e *Engine, until vtime.Time) {
	const iv = vtime.BeaconInterval
	for i := range e.shims {
		sh := e.shims[i]
		firstGroup := vtime.GroupOf(e.scheduledThrough, iv) + 1
		for g := firstGroup; ; g++ {
			boundary := vtime.GroupStart(g, iv)
			if boundary > until {
				break
			}
			at := boundary.Add(e.skew[sh.id])
			sh.lane.ScheduleCall(at, eventq.Func(func() { sh.onTimerBatch(g) }))
		}
	}
	if until > e.scheduledThrough {
		e.scheduledThrough = until
	}
}

// runTickProgram drives one engine through a fixed program of Run calls —
// a Run that crosses no boundary, extensions that find earlier ticks still
// queued, a drain in the middle (so the next Run's first ticks are already
// in the past and clamp to the clock), a crash and restart, ticks left past
// the last until for the final drain — scheduling ticks with the chain or
// with the oracle loop. spec must be resolved.
func runTickProgram(t *testing.T, spec EngineSpec, oracle bool) ([][]firedEv, Stats) {
	t.Helper()
	// The program counts in units of a twentieth of the beacon interval.
	// BRITE's 5–41 ms links, stretched fivefold, put the largest skew
	// past one interval: some nodes have several ticks due at once, and
	// every Run leaves ticks queued past until. (A longer stretch only
	// deepens the rollback storm the timer floods set off.)
	const iv = vtime.BeaconInterval
	brite := topology.Brite(12, 2, 4)
	links := make([]topology.Link, len(brite.Links))
	for i, l := range brite.Links {
		l.Delay *= 5
		links[i] = l
	}
	g := topology.FromLinks("brite-stretched", brite.N, links)
	as := make([]api.Application, g.N)
	for i := range as {
		as[i] = &labelApp{floodApp: *newFloodApp()}
	}
	e := New(g, as, spec)
	for i := range as {
		as[i].(*labelApp).eng = e
	}
	maxSkew := vtime.Duration(0)
	for _, s := range e.skew {
		maxSkew = max(maxSkew, s)
	}
	if maxSkew <= iv {
		t.Fatalf("max skew %v does not exceed the %v interval: no overlapping ticks", maxSkew, iv)
	}
	u := func(n int) vtime.Time { return vtime.Time(vtime.Duration(n) * iv / 20) }
	for v, at := range []vtime.Time{u(1), u(47), u(215)} {
		node := msg.NodeID((v * 5) % g.N)
		e.sim.ScheduleFn(at, func() { e.InjectExternal(node, injectEvent{Value: v}) })
	}
	e.sim.ScheduleFn(u(30), func() { e.CrashNode(5) })
	e.sim.ScheduleFn(u(110), func() { e.RestartNode(5) })
	run := func(until vtime.Time) {
		if oracle {
			loopScheduleGroupTicks(e, until)
			e.sim.Run(until)
		} else {
			e.Run(until)
		}
	}
	run(u(70))
	run(u(75)) // crosses no boundary
	run(u(130))
	if !e.RunQuiescent(1_000_000) {
		t.Fatal("mid-program drain did not quiesce")
	}
	run(u(333))
	if e.sim.Pending() == 0 {
		t.Fatal("no tick left queued past until for the drain")
	}
	if !e.RunQuiescent(1_000_000) {
		t.Fatal("final drain did not quiesce")
	}
	if *spec.Shards > 1 && e.sim.Windows() == 0 {
		t.Fatal("sharded run opened no parallel window: no tick was armed from inside one")
	}
	logs := make([][]firedEv, g.N)
	for i := range as {
		logs[i] = as[i].(*labelApp).log
	}
	return logs, e.Stats()
}

// The tick chain must fire every event of a run under the (at, seq) label
// the pre-scheduling loop gave it: same ticks, same groups, and — because
// the reserved block is exactly what the loop drew — the same labels on
// every message and external behind them.
func TestTickChainLabels(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec EngineSpec
	}{
		{"sequential", EngineSpec{Seed: ptr[uint64](3)}},
		{"shards2", EngineSpec{Seed: ptr[uint64](3), Shards: ptr(2)}},
		{"baseline", EngineSpec{Seed: ptr[uint64](3), Baseline: ptr(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ResolveEngine(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := runTickProgram(t, spec, true)
			got, gotStats := runTickProgram(t, spec, false)
			for n := range want {
				if len(got[n]) != len(want[n]) {
					t.Fatalf("node %d: %d handler calls, loop had %d", n, len(got[n]), len(want[n]))
				}
				for i, w := range want[n] {
					if got[n][i] != w {
						t.Fatalf("node %d call %d: chain %+v, loop %+v", n, i, got[n][i], w)
					}
				}
			}
			if gotStats != wantStats {
				t.Fatalf("stats differ:\nchain: %+v\nloop:  %+v", gotStats, wantStats)
			}
			// 16 boundaries in (0, 333 units] at 12 nodes; while node 5 is down
			// its ticks fire into the quarantine instead of the application.
			const all = 12 * 16
			switch b := gotStats.TimerBatches; {
			case *spec.Baseline && b != all:
				t.Fatalf("baseline delivered %d timer batches, want %d", b, all)
			case !*spec.Baseline && (b >= all || b+gotStats.QuarantinedDrops < all || gotStats.NodeRestarts != 1):
				t.Fatalf("program did not exercise the crash window: %+v", gotStats)
			}
		})
	}
}
