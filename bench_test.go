package defined_test

// One benchmark per evaluation figure (paper §5): each regenerates its
// figure from its committed spec (runFigure: LoadSpec → Run) and
// reports the headline metric the paper reads off the plot. Run with:
//
//	go test -bench=. -benchmem
//
// The committed specs are the reduced (quick) workloads;
// cmd/defined-bench regenerates the full-scale figures. Ablation benchmarks cover the design
// knobs DESIGN.md calls out (beacon interval, chain bound, checkpoint
// strategies), and micro-benchmarks cover the hot substrate paths.

import (
	"os"
	"testing"

	"defined"
	"defined/internal/checkpoint"
	"defined/internal/history"
	"defined/internal/memstore"
	"defined/internal/metrics"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/ospf"
	"defined/internal/scenario"
	"defined/internal/vtime"
)

func medianX(pts []metrics.Point) float64 {
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

func lastY(pts []metrics.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Y
}

// BenchmarkFig6a_ControlOverhead regenerates Figure 6a: per-node control
// packets per trace event, XORP vs DEFINED-RB (CDF medians reported).
func BenchmarkFig6a_ControlOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig6a")
		b.ReportMetric(medianX(f.SeriesByName("XORP").Points), "xorp-median-pkts")
		b.ReportMetric(medianX(f.SeriesByName("DEFINED-RB").Points), "rb-median-pkts")
	}
}

// BenchmarkFig6b_Convergence regenerates Figure 6b: convergence time CDFs.
func BenchmarkFig6b_Convergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig6b")
		b.ReportMetric(medianX(f.SeriesByName("XORP").Points), "xorp-median-s")
		b.ReportMetric(medianX(f.SeriesByName("DEFINED-RB").Points), "rb-median-s")
	}
}

// BenchmarkFig6c_StepResponse regenerates Figure 6c: DEFINED-LS per-step
// response time CDF (paper: every step under one second).
func BenchmarkFig6c_StepResponse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig6c")
		pts := f.SeriesByName("DEFINED-LS").Points
		b.ReportMetric(medianX(pts), "median-s")
		if len(pts) > 0 {
			b.ReportMetric(pts[len(pts)-1].X, "max-s")
		}
	}
}

// BenchmarkFig7a_RollbackCost regenerates Figure 7a: FK vs MI rollback
// cost (real measured milliseconds; paper: MI median ≈ 0.6 ms ≪ FK).
func BenchmarkFig7a_RollbackCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig7a")
		b.ReportMetric(medianX(f.SeriesByName("DEFINED-RB(MI)").Points), "mi-median-ms")
		b.ReportMetric(medianX(f.SeriesByName("DEFINED-RB(FK)").Points), "fk-median-ms")
	}
}

// BenchmarkFig7b_NonRollbackCost regenerates Figure 7b: per-packet cost by
// fork timing (paper ordering XORP < TM < PF < TF).
func BenchmarkFig7b_NonRollbackCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig7b")
		for _, name := range []string{"XORP", "DEFINED-RB(TM)", "DEFINED-RB(PF)", "DEFINED-RB(TF)"} {
			b.ReportMetric(medianX(f.SeriesByName(name).Points)*1000, name+"-median-µs")
		}
	}
}

// BenchmarkFig7c_Memory regenerates Figure 7c: VM grows with live forks,
// PM stays within a few percent of baseline.
func BenchmarkFig7c_Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig7c")
		vm := f.SeriesByName("DEFINED-RB(VM)").Points
		pm := f.SeriesByName("DEFINED-RB(PM)").Points
		b.ReportMetric(vm[len(vm)-1].X, "vm-max-MB")
		b.ReportMetric(pm[len(pm)-1].X, "pm-max-MB")
	}
}

// BenchmarkFig8a_ControlVsSize regenerates Figure 8a: packets/node vs
// network size for RO, OO and XORP (values at the largest size).
func BenchmarkFig8a_ControlVsSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig8a")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-RB(RO)").Points), "ro-pkts")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-RB(OO)").Points), "oo-pkts")
		b.ReportMetric(lastY(f.SeriesByName("XORP").Points), "xorp-pkts")
	}
}

// BenchmarkFig8b_ConvergenceVsSize regenerates Figure 8b.
func BenchmarkFig8b_ConvergenceVsSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig8b")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-RB(RO)").Points), "ro-s")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-RB(OO)").Points), "oo-s")
		b.ReportMetric(lastY(f.SeriesByName("XORP").Points), "xorp-s")
	}
}

// BenchmarkFig8c_ResponseVsSize regenerates Figure 8c: DEFINED-LS step
// response vs size (paper: slow growth, < 0.8 s at 80 nodes).
func BenchmarkFig8c_ResponseVsSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig8c")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-LS").Points), "largest-size-s")
	}
}

// BenchmarkFig8d_EventRate regenerates Figure 8d: convergence vs external
// event rate (paper: ≈ 2 s at 10 events/s).
func BenchmarkFig8d_EventRate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := runFigure(b, "fig8d")
		b.ReportMetric(lastY(f.SeriesByName("DEFINED-RB").Points), "highest-rate-s")
	}
}

// ---- ablations ----------------------------------------------------------------

func ablationNetwork(b *testing.B, eng defined.EngineSpec) *defined.Network {
	b.Helper()
	g := defined.Brite(16, 2, 9)
	apps := make([]defined.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	net := mustNet(b, g, apps, eng)
	l := g.Links[0]
	net.At(defined.Seconds(0.30), func() { _ = net.InjectLinkChange(l.A, l.B, false) })
	net.At(defined.Seconds(0.90), func() { _ = net.InjectLinkChange(l.A, l.B, true) })
	net.Run(defined.Seconds(2))
	net.Drain()
	return net
}

// BenchmarkAblation_ChainBound varies the per-timestep chain cap.
func BenchmarkAblation_ChainBound(b *testing.B) {
	for _, bound := range []int{4, 16, 64} {
		bound := bound
		b.Run(string(rune('0'+bound/10))+string(rune('0'+bound%10)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := ablationNetwork(b, defined.EngineSpec{Seed: ptr(uint64(3)), ChainBound: &bound})
				b.ReportMetric(float64(net.Stats().Rollbacks), "rollbacks")
				b.ReportMetric(float64(net.Stats().Deliveries), "deliveries")
			}
		})
	}
}

// BenchmarkAblation_CheckpointStrategy compares the strategies' rollback
// counts and deliveries under identical load (cost-model effects).
func BenchmarkAblation_CheckpointStrategy(b *testing.B) {
	for _, s := range []checkpoint.Strategy{
		{Timing: checkpoint.TF, Mode: checkpoint.FK},
		{Timing: checkpoint.PF, Mode: checkpoint.MI},
		{Timing: checkpoint.TM, Mode: checkpoint.MI},
	} {
		s := s
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				net := ablationNetwork(b, defined.EngineSpec{Seed: ptr(uint64(3)), Strategy: s.String()})
				b.ReportMetric(float64(net.Stats().Rollbacks), "rollbacks")
			}
		})
	}
}

// ---- substrate micro-benchmarks -------------------------------------------------

// BenchmarkOrderingCompare measures the ordering function's hot path.
func BenchmarkOrderingCompare(b *testing.B) {
	oo := ordering.Optimized()
	a := ordering.Key{Group: 3, Class: ordering.ClassMessage, Delay: 100, Origin: 5, Seq: 9}
	c := ordering.Key{Group: 3, Class: ordering.ClassMessage, Delay: 101, Origin: 6, Seq: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = oo.Compare(a, c)
	}
}

// BenchmarkWindowInsert measures history-window insertion at a realistic
// window size.
func BenchmarkWindowInsert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := history.New(ordering.Optimized())
		for j := 0; j < 64; j++ {
			m := &msg.Message{
				ID:  msg.ID{Sender: msg.NodeID(j % 8), Seq: uint64(j)},
				Ann: msg.Annotation{Origin: msg.NodeID(j % 8), Seq: uint64(j), Delay: vtime.Duration(j * 37 % 50)},
			}
			w.Insert(history.Entry{Key: ordering.KeyOf(m), Msg: m})
		}
	}
}

// BenchmarkMemstoreSnapshot measures the fork-equivalent (page-table copy).
func BenchmarkMemstoreSnapshot(b *testing.B) {
	st := memstore.New(4 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := st.Snapshot()
		if err := st.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemstoreRestoreDirty measures the MI rollback path with a small
// dirty set.
func BenchmarkMemstoreRestoreDirty(b *testing.B) {
	st := memstore.New(4 << 20)
	id := st.Snapshot()
	buf := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write((i*4096)%(4<<20), buf)
		if _, err := st.RestoreDirty(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierBoot10k measures cold boot of the committed 10k-router
// hierarchical mixed-protocol scenario: plan expansion (topology
// generation, per-node protocol bindings, event schedule) plus network
// construction. A regression here means 10k-scale interactive debugging
// sessions stop being cheap to start. Execution cost is bench/'s hier2k
// workloads; boot must stay sub-second.
func BenchmarkHierBoot10k(b *testing.B) {
	b.ReportAllocs()
	raw, err := os.ReadFile("scenarios/hier10k.json")
	if err != nil {
		b.Fatal(err)
	}
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		b.Fatal(err)
	}
	r, err := s.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		p, err := r.Expand()
		if err != nil {
			b.Fatal(err)
		}
		net := defined.NewNetworkFromPlan(p)
		if i == 0 {
			b.ReportMetric(float64(p.Graph.N), "routers")
		}
		_ = net
	}
}
