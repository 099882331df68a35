package experiments

import (
	"strings"
	"testing"

	"defined/internal/metrics"
	"defined/internal/scenario"
	"defined/internal/topology"
	"defined/internal/trace"
	"defined/internal/vtime"
)

// figure regenerates one figure the way every caller does: committed
// spec → LoadSpec → Run.
func figure(t *testing.T, id string) *metrics.Figure {
	t.Helper()
	r, err := LoadSpec(id)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFig6aShape(t *testing.T) {
	f := figure(t, "fig6a")
	xorp := f.SeriesByName("XORP")
	rb := f.SeriesByName("DEFINED-RB")
	if xorp == nil || rb == nil {
		t.Fatal("missing series")
	}
	if len(xorp.Points) == 0 || len(rb.Points) == 0 {
		t.Fatal("empty series")
	}
	// Shape: the curves should be broadly similar — DEFINED-RB's mean
	// packets/node within 2 of XORP's is the paper's headline for 8a;
	// for 6a we check the overall mass is comparable (within 50%).
	if rb.Points[len(rb.Points)-1].Y != 1 || xorp.Points[len(xorp.Points)-1].Y != 1 {
		t.Fatal("CDFs must reach 1")
	}
}

func TestFig6bShape(t *testing.T) {
	f := figure(t, "fig6b")
	for _, name := range []string{"XORP", "DEFINED-RB"} {
		s := f.SeriesByName(name)
		if s == nil || len(s.Points) == 0 {
			t.Fatalf("series %s missing", name)
		}
		// Convergence times are positive seconds, sub-5s.
		for _, p := range s.Points {
			if p.X < 0 || p.X > 5 {
				t.Fatalf("%s: implausible convergence %v", name, p.X)
			}
		}
	}
}

func TestFig6cShape(t *testing.T) {
	f := figure(t, "fig6c")
	s := f.SeriesByName("DEFINED-LS")
	if s == nil || len(s.Points) == 0 {
		t.Fatal("missing series")
	}
	// Paper: every step under a second.
	for _, p := range s.Points {
		if p.X > 1.0 {
			t.Fatalf("step response %v exceeds 1s", p.X)
		}
	}
}

func TestFig7aShape(t *testing.T) {
	f := figure(t, "fig7a")
	mi := f.SeriesByName("DEFINED-RB(MI)")
	fk := f.SeriesByName("DEFINED-RB(FK)")
	if mi == nil || fk == nil || len(mi.Points) == 0 || len(fk.Points) == 0 {
		t.Fatal("missing series")
	}
	// Shape: MI's median must be well below FK's (paper: order of
	// magnitude). Compare the x value where y crosses 0.5.
	if medianOf(mi.Points)*2 > medianOf(fk.Points) {
		t.Fatalf("MI median %.3f not clearly below FK median %.3f",
			medianOf(mi.Points), medianOf(fk.Points))
	}
}

// TestFig7bShape checks the paper's per-packet cost ordering, XORP <= TM
// <= PF <= TF, on what every packet of the committed spec pays in band,
// counted rather than timed: (snapshots taken, COW faults) on the critical
// path. The counts repeat exactly on a seed, where wall-clock minima move
// with host load. The figure still plots wall time, and its four series
// must be there.
func TestFig7bShape(t *testing.T) {
	f := figure(t, "fig7b")
	for _, name := range []string{"XORP", "DEFINED-RB(TM)", "DEFINED-RB(PF)", "DEFINED-RB(TF)"} {
		if s := f.SeriesByName(name); s == nil || len(s.Points) == 0 {
			t.Fatalf("series %s missing", name)
		}
	}
	spec, err := LoadSpec("fig7b")
	if err != nil {
		t.Fatal(err)
	}
	if spec, err = spec.resolve(); err != nil {
		t.Fatal(err)
	}
	w := workload{eng: spec.Engine, quick: *spec.Quick}
	want := map[string]struct {
		snaps  int
		faults uint64
	}{"XORP": {0, 0}, "TM": {0, 0}, "PF": {0, fig7bDirty}, "TF": {1, fig7bDirty}}
	for _, mode := range fig7bModes {
		st := newFig7State(w)
		for i := 0; i < w.fig7Trials(); i++ {
			_, snaps, faults := st.fig7bPacket(mode)
			if snaps != want[mode].snaps || faults != want[mode].faults {
				t.Fatalf("%s packet %d: in band %d snapshots and %d COW faults, want %d and %d",
					mode, i, snaps, faults, want[mode].snaps, want[mode].faults)
			}
		}
	}
}

func TestFig7cShape(t *testing.T) {
	f := figure(t, "fig7c")
	vm := f.SeriesByName("DEFINED-RB(VM)")
	pm := f.SeriesByName("DEFINED-RB(PM)")
	xorp := f.SeriesByName("XORP")
	if vm == nil || pm == nil || xorp == nil {
		t.Fatal("missing series")
	}
	// Paper: VM far exceeds PM; PM within a few percent of baseline.
	vmMax := maxX(vm.Points)
	pmMax := maxX(pm.Points)
	baseMax := maxX(xorp.Points)
	if vmMax < 3*pmMax {
		t.Fatalf("VM (%.1fMB) should dwarf PM (%.1fMB)", vmMax, pmMax)
	}
	if pmMax > baseMax*1.25 {
		t.Fatalf("PM inflation too large: %.1f vs baseline %.1f", pmMax, baseMax)
	}
}

func TestFig8aShape(t *testing.T) {
	f := figure(t, "fig8a")
	ro := f.SeriesByName("DEFINED-RB(RO)")
	oo := f.SeriesByName("DEFINED-RB(OO)")
	xorp := f.SeriesByName("XORP")
	if ro == nil || oo == nil || xorp == nil {
		t.Fatal("missing series")
	}
	for i := range oo.Points {
		// Paper: OO within ~2 packets of XORP at every size.
		if oo.Points[i].Y > xorp.Points[i].Y+4 {
			t.Fatalf("size %v: OO %.1f too far above XORP %.1f",
				oo.Points[i].X, oo.Points[i].Y, xorp.Points[i].Y)
		}
		// Paper: RO pays visibly more than OO.
		if ro.Points[i].Y <= oo.Points[i].Y {
			t.Fatalf("size %v: RO %.1f should exceed OO %.1f",
				ro.Points[i].X, ro.Points[i].Y, oo.Points[i].Y)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	f := figure(t, "fig8b")
	for _, name := range fig8Order {
		s := f.SeriesByName(name)
		if s == nil || len(s.Points) == 0 {
			t.Fatalf("series %s missing", name)
		}
	}
}

func TestFig8cShape(t *testing.T) {
	f := figure(t, "fig8c")
	s := f.SeriesByName("DEFINED-LS")
	if s == nil || len(s.Points) == 0 {
		t.Fatal("missing series")
	}
	for _, p := range s.Points {
		if p.Y <= 0 || p.Y > 1.4 {
			t.Fatalf("implausible LS response at n=%v: %v", p.X, p.Y)
		}
	}
}

func TestFig8dShape(t *testing.T) {
	f := figure(t, "fig8d")
	s := f.SeriesByName("DEFINED-RB")
	if s == nil || len(s.Points) == 0 {
		t.Fatal("missing series")
	}
	for _, p := range s.Points {
		if p.Y < 0 || p.Y > 10 {
			t.Fatalf("implausible convergence at rate %v: %v", p.X, p.Y)
		}
	}
}

// TestNoSettleViolationsAcrossWorkloads pins the adaptive settle bound's
// correctness criterion on the experiment workloads: replaying trace
// events on both evaluation topology families, under both orderings, with
// deferral pinned off (the figure configuration) and at the engine
// default, must never retire a history slot a straggler still needed.
func TestNoSettleViolationsAcrossWorkloads(t *testing.T) {
	// The reference engine the committed specs state, and the same block
	// with deferral left at the engine default.
	pinned := scenario.EngineSpec{Seed: ptr(uint64(42)), Strategy: "TF/FK", Deferral: ptr(false)}
	deferred := scenario.EngineSpec{Seed: ptr(uint64(42)), Strategy: "TF/FK"}
	ro := pinned
	ro.Ordering, ro.OrderingSeed = "RO", ptr(uint64(43))
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		eng  scenario.EngineSpec
	}{
		{"sprintlink/oo-pinned", topology.Sprintlink(), pinned},
		{"sprintlink/oo-defer", topology.Sprintlink(), deferred},
		{"brite/oo-defer", topology.Brite(20, 2, 42), deferred},
		{"brite/ro-pinned", topology.Brite(20, 2, 42), ro},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := newNetwork(tc.g, tc.eng)
			if err != nil {
				t.Fatal(err)
			}
			evs := trace.Poisson(tc.g, 0.5, 16*vtime.Second, 300*vtime.Millisecond, 42)
			applied := 0
			for i, ev := range evs {
				if i >= 8 {
					break
				}
				if _, _, err := n.perEvent(ev, 2*vtime.Second); err == nil {
					applied++
				}
			}
			if applied == 0 {
				t.Fatal("no trace event applied; the network never churned")
			}
			n.RunQuiescent(10_000_000)
			st := n.Stats()
			if st.SettleViolations != 0 {
				t.Fatalf("settle violations under adaptive bound: %+v", st)
			}
			if tc.eng.Deferral != nil && st.Deferred != 0 {
				t.Fatalf("deferral: false still deferred arrivals: %+v", st)
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	// An edit is held to the same rules as the committed file, and so is
	// a spec that never went through LoadSpec.
	_, err := LoadSpec("fig7a", func(s *Spec) { s.Figure = "fig99" })
	if err == nil || !strings.Contains(err.Error(), `unknown figure "fig99"`) {
		t.Fatalf("unknown figure: %v", err)
	}
	if _, err := Run(Spec{Figure: "fig99"}); err == nil || !strings.Contains(err.Error(), `unknown figure "fig99"`) {
		t.Fatalf("unknown figure, hand-built spec: %v", err)
	}
	// A series is an edit of the spec's engine block; an edit that
	// contradicts the block is an error, not a silently different engine.
	r, err := LoadSpec("fig8a", func(s *Spec) { s.Engine.Deferral = ptr(true) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(r); err == nil || !strings.Contains(err.Error(), "deferral with RO ordering") {
		t.Fatalf("deferral beside the RO series: %v", err)
	}
	if _, err := LoadSpec("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestFigureRendering(t *testing.T) {
	f := figure(t, "fig7a")
	if !strings.Contains(f.CSV(), "DEFINED-RB(MI)") {
		t.Fatal("CSV missing series")
	}
	if !strings.Contains(f.Table(), "fig7a") {
		t.Fatal("table missing id")
	}
}

// ---- helpers ----------------------------------------------------------------

func medianOf(pts []metrics.Point) float64 {
	for _, p := range pts {
		if p.Y >= 0.5 {
			return p.X
		}
	}
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].X
}

func maxX(pts []metrics.Point) float64 {
	m := 0.0
	for _, p := range pts {
		if p.X > m {
			m = p.X
		}
	}
	return m
}
