package defined_test

import (
	"testing"

	"defined"
	"defined/internal/rollback"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// flapScenario builds the Sprintlink link-flap workload (TM/MI, deferral
// on, per-link lookahead as given) and runs it to the drain point.
func flapScenario(lookahead bool) *rollback.Engine {
	g := topology.Sprintlink()
	apps := make([]defined.Application, g.N)
	for j := range apps {
		apps[j] = ospf.New(ospf.Config{})
	}
	eng := rollback.New(g, apps, rollback.EngineSpec{Seed: ptr[uint64](7), Lookahead: &lookahead})
	l := g.Links[0]
	eng.Sim().ScheduleFn(vtime.Time(300*vtime.Millisecond), func() {
		_ = eng.InjectLinkChange(l.A, l.B, false)
	})
	eng.Sim().ScheduleFn(vtime.Time(900*vtime.Millisecond), func() {
		_ = eng.InjectLinkChange(l.A, l.B, true)
	})
	eng.Run(vtime.Time(2 * vtime.Second))
	return eng
}

// TestLookaheadRollbackRate pins the number per-link lookahead was built
// for: on the Sprintlink link-flap workload it cuts rollbacks per
// committed delivery below 0.1 (from ~0.46 with the heuristic gap rule
// alone) without moving a single committed delivery — the committed count
// must be identical on and off (order identity is TestLookaheadGolden's
// job), and the exact holds must do the work (holds taken, most flushing
// at their exact release rather than clipped by budget).
func TestLookaheadRollbackRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 2 s flap workload twice (~0.5 s)")
	}
	run := func(la bool) rollback.Stats {
		eng := flapScenario(la)
		eng.RunQuiescent(10_000_000)
		return eng.Stats()
	}
	off, on := run(false), run(true)
	if off.CommittedDeliveries() != on.CommittedDeliveries() {
		t.Fatalf("lookahead moved committed deliveries: %d on vs %d off",
			on.CommittedDeliveries(), off.CommittedDeliveries())
	}
	committed := float64(on.CommittedDeliveries())
	if committed == 0 {
		t.Fatal("flap workload committed nothing")
	}
	offRate := float64(off.Rollbacks) / committed
	onRate := float64(on.Rollbacks) / committed
	t.Logf("rb/committed: %.4f off -> %.4f on (holds %d, exact flushes %d)",
		offRate, onRate, on.LookaheadHolds, on.LookaheadExactFlushes)
	if onRate >= 0.1 {
		t.Fatalf("rb/committed = %.4f with lookahead, want < 0.1", onRate)
	}
	if onRate >= offRate/2 {
		t.Fatalf("lookahead barely moved the rate: %.4f on vs %.4f off", onRate, offRate)
	}
	if on.LookaheadHolds == 0 || on.LookaheadExactFlushes == 0 {
		t.Fatalf("exact-hold mechanism inert: %+v", on)
	}
	if on.SettleViolations != 0 || off.SettleViolations != 0 {
		t.Fatalf("settle violations: on %d off %d", on.SettleViolations, off.SettleViolations)
	}
}
