package rip

import (
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

const prefix = "10.9.0.0/16"

// tick advances the daemon's virtual clock across [from, to] on the beacon
// grid, collecting outputs.
func tick(d *Daemon, from, to vtime.Time) []msg.Out {
	var outs []msg.Out
	for t := from; t <= to; t = t.Add(vtime.BeaconInterval) {
		outs = append(outs, d.HandleTimer(t)...)
	}
	return outs
}

func mkDaemon(mode Mode) *Daemon {
	d := New(Config{
		Mode:           mode,
		UpdateInterval: vtime.Second,
		Timeout:        2*vtime.Second + 500*vtime.Millisecond,
	})
	// Node 0 = R1 with neighbors R2 (node 1, main) and R3 (node 2, backup).
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	return d
}

func announce(d *Daemon, from msg.NodeID, metric int) {
	d.HandleMessage(&msg.Message{From: from, Payload: announcement{
		From: from, Routes: []advert{{Prefix: prefix, Metric: metric}},
	}})
}

func TestLearnsAndPrefersBetterMetric(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 2, 2) // backup first: metric 3 after increment
	nh, metric, ok := d.Route(prefix)
	if !ok || nh != 2 || metric != 3 {
		t.Fatalf("route = %v %v %v", nh, metric, ok)
	}
	announce(d, 1, 1) // main: metric 2 — better, switch
	nh, metric, _ = d.Route(prefix)
	if nh != 1 || metric != 2 {
		t.Fatalf("route should switch to main: %v %v", nh, metric)
	}
	// Worse route from another neighbor must not displace.
	announce(d, 2, 5)
	if nh, _, _ = d.Route(prefix); nh != 1 {
		t.Fatal("worse alternative must not displace")
	}
}

func TestSameNextHopMayWorsen(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 1, 1)
	announce(d, 1, 4) // same next hop: accept worse metric
	_, metric, _ := d.Route(prefix)
	if metric != 5 {
		t.Fatalf("metric = %d, want 5", metric)
	}
	announce(d, 1, Infinity) // poison: withdraw
	if _, _, ok := d.Route(prefix); ok {
		t.Fatal("infinity from next hop must withdraw")
	}
}

func TestRouteExpiresWithoutRefresh(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 1, 1)
	// No refreshes: the route must expire after Timeout (2.5 s).
	tick(d, vtime.Time(vtime.BeaconInterval), vtime.Time(4*vtime.Second))
	if _, _, ok := d.Route(prefix); ok {
		t.Fatal("route should have expired")
	}
}

// TestFigure5BlackHole reproduces the paper's case study in isolation:
// backup announcements refresh the dead main route under Quagga 0.96.5
// semantics, creating a permanent black hole; the fixed daemon recovers.
func TestFigure5BlackHole(t *testing.T) {
	for _, tc := range []struct {
		mode        Mode
		wantNextHop msg.NodeID
	}{
		{Quagga0965, 1}, // black hole: still points at dead R2
		{FixedMode, 2},  // recovered: switched to R3
	} {
		d := mkDaemon(tc.mode)
		d.HandleTimer(0)
		// Both R2 (metric 1) and R3 (metric 2) announce periodically;
		// R1 installs the route via R2.
		for sec := 0; sec < 3; sec++ {
			now := vtime.Time(vtime.Duration(sec) * vtime.Second)
			tick(d, now, now) // advance clock on the second grid
			announce(d, 1, 1)
			announce(d, 2, 2)
			tick(d, now.Add(vtime.BeaconInterval), now.Add(3*vtime.BeaconInterval))
		}
		if nh, _, _ := d.Route(prefix); nh != 1 {
			t.Fatalf("%v: setup failed, route via %d", tc.mode, nh)
		}
		// R2 dies silently at t=3s: only R3 keeps announcing.
		for sec := 3; sec < 12; sec++ {
			now := vtime.Time(vtime.Duration(sec) * vtime.Second)
			tick(d, now, now)
			announce(d, 2, 2)
			tick(d, now.Add(vtime.BeaconInterval), now.Add(3*vtime.BeaconInterval))
		}
		nh, _, ok := d.Route(prefix)
		if !ok {
			t.Fatalf("%v: route disappeared entirely", tc.mode)
		}
		if nh != tc.wantNextHop {
			t.Fatalf("%v: next hop = %d, want %d", tc.mode, nh, tc.wantNextHop)
		}
	}
}

func TestOriginateAndAnnounce(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	outs := d.HandleExternal(Originate{Prefix: prefix, Metric: 0})
	if len(outs) != 2 {
		t.Fatalf("originate should announce to both neighbors, got %d", len(outs))
	}
	nh, metric, ok := d.Route(prefix)
	if !ok || nh != msg.None || metric != 0 {
		t.Fatalf("local route = %v %v %v", nh, metric, ok)
	}
	// Local routes never expire or get displaced.
	tick(d, vtime.Time(vtime.BeaconInterval), vtime.Time(10*vtime.Second))
	announce(d, 1, 0)
	if nh, _, _ := d.Route(prefix); nh != msg.None {
		t.Fatal("local route must not be displaced")
	}
}

func TestPeriodicAnnouncements(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	d.HandleExternal(Originate{Prefix: prefix, Metric: 0})
	outs := tick(d, vtime.Time(vtime.BeaconInterval), vtime.Time(3*vtime.Second))
	// Updates at 1s, 2s, 3s × 2 neighbors = 6 announcements.
	if len(outs) != 6 {
		t.Fatalf("got %d periodic announcements, want 6", len(outs))
	}
}

func TestSplitHorizon(t *testing.T) {
	d := New(Config{Mode: FixedMode, UpdateInterval: vtime.Second, Timeout: 10 * vtime.Second, SplitHorizon: true})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.HandleTimer(0)
	announce(d, 1, 1)
	outs := tick(d, vtime.Time(vtime.Second), vtime.Time(vtime.Second))
	// With split horizon the route learned from 1 is only advertised to 2.
	if len(outs) != 1 || outs[0].To != 2 {
		t.Fatalf("split horizon violated: %+v", outs)
	}
}

func TestCrashSilencesDaemon(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	d.HandleExternal(Originate{Prefix: prefix, Metric: 0})
	d.HandleExternal(Crash{})
	if !d.Crashed() {
		t.Fatal("should be crashed")
	}
	if outs := tick(d, vtime.Time(vtime.BeaconInterval), vtime.Time(5*vtime.Second)); outs != nil {
		t.Fatal("crashed daemon must not announce")
	}
	announce(d, 1, 1)
	if d.Refreshes() != 0 {
		t.Fatal("crashed daemon must not process announcements")
	}
}

func TestStateCloneIsolated(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 1, 1)
	snap := d.State().Clone()
	announce(d, 2, 0) // better: displaces
	if nh, _, _ := d.Route(prefix); nh != 2 {
		t.Fatal("live route should be via 2")
	}
	d.Restore(snap)
	if nh, _, _ := d.Route(prefix); nh != 1 {
		t.Fatal("restored route should be via 1")
	}
}

func TestModeString(t *testing.T) {
	if Quagga0965.String() != "quagga-0.96.5" || FixedMode.String() != "fixed" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string")
	}
}

func TestDumpTable(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 1, 1)
	if s := d.DumpTable(); s == "" {
		t.Fatal("dump should render the route")
	}
}

func TestLinkChangeIgnored(t *testing.T) {
	d := mkDaemon(FixedMode)
	if outs := d.HandleExternal(api.LinkChange{Peer: 1, Up: false}); outs != nil {
		t.Fatal("RIP must ignore interface events (timing bug precondition)")
	}
}

func TestInfinityClamp(t *testing.T) {
	d := mkDaemon(FixedMode)
	d.HandleTimer(0)
	announce(d, 1, Infinity+5)
	if _, _, ok := d.Route(prefix); ok {
		t.Fatal("unreachable metric must not install")
	}
}
