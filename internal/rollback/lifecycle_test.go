package rollback

import (
	"testing"

	"defined/internal/topology"
	"defined/internal/vtime"
)

// oddPayload deliberately implements neither msg.PayloadEq nor any of the
// typed comparable arms, forcing the lazy-cancellation comparison onto the
// reflection fallback.
type oddPayload struct{ V int }

func TestPayloadEqualTypedArmsAvoidReflection(t *testing.T) {
	l := &ledger{stats: &Stats{}}
	cases := []struct {
		a, b any
		want bool
	}{
		{"x", "x", true}, {"x", "y", false}, {"x", 1, false},
		{1, 1, true}, {1, 2, false},
		{int32(3), int32(3), true}, {int64(4), int64(5), false},
		{uint64(7), uint64(7), true},
		{1.5, 1.5, true}, {1.5, 2.5, false},
		{true, true, true}, {true, false, false},
		{nil, nil, true}, {nil, "x", false},
	}
	for _, tc := range cases {
		if got := l.payloadEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("payloadEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if l.stats.ReflectFallbacks != 0 {
		t.Fatalf("typed arms fell back to reflection %d times", l.stats.ReflectFallbacks)
	}
	if !l.payloadEqual(oddPayload{1}, oddPayload{1}) || l.payloadEqual(oddPayload{1}, oddPayload{2}) {
		t.Fatal("reflection fallback must still compare structurally")
	}
	if l.stats.ReflectFallbacks != 2 {
		t.Fatalf("ReflectFallbacks = %d, want 2 (one per fallback compare)", l.stats.ReflectFallbacks)
	}
}

// The shipped scenario payloads (ints here, PayloadEq daemons elsewhere)
// must keep the reflection fallback cold end to end.
func TestScenarioKeepsReflectFallbackCold(t *testing.T) {
	_, _, e := runScenario(t, topology.Sprintlink(), EngineSpec{Seed: ptr[uint64](11), DeliveryLog: ptr(true)}, 6)
	st := e.Stats()
	if st.LazyReuses == 0 {
		t.Fatal("scenario exercised no lazy-cancellation compares")
	}
	if st.ReflectFallbacks != 0 {
		t.Fatalf("ReflectFallbacks = %d, want 0 (typed arms must cover scenario payloads)", st.ReflectFallbacks)
	}
}

// End-to-end wire-message recycling: after a flap workload drains and
// settles, the pool must have recycled messages (free list populated) and
// poison mode must complete the identical workload with zero violations.
func TestMessagePoolRecyclesUnderWorkload(t *testing.T) {
	_, _, e := runScenario(t, topology.Sprintlink(), EngineSpec{Seed: ptr[uint64](3)}, 6)
	pool := e.Sim().Pool()
	if pool.Len() == 0 {
		t.Fatal("no wire messages were recycled")
	}
	if pool.Violations() != 0 {
		t.Fatalf("lifecycle violations = %d, want 0", pool.Violations())
	}

	_, _, pe := runScenario(t, topology.Sprintlink(), EngineSpec{Seed: ptr[uint64](3), Poison: ptr(true)}, 6)
	ppool := pe.Sim().Pool()
	if ppool.Violations() != 0 {
		t.Fatalf("poison run violations = %d, want 0", ppool.Violations())
	}
	if ppool.Quarantined() == 0 {
		t.Fatal("poison run quarantined nothing — lifecycle never released?")
	}
}

// Committed orders and app logs must be bit-identical with pooling on,
// off, and poisoned: the lifecycle may move allocations, never execution.
func TestMessagePoolObservationallyInvisible(t *testing.T) {
	g := topology.Sprintlink()
	logsOn, keysOn, _ := runScenario(t, g, EngineSpec{Seed: ptr[uint64](9), DeliveryLog: ptr(true)}, 5)
	logsOff, keysOff, _ := runScenario(t, g, EngineSpec{Seed: ptr[uint64](9), DeliveryLog: ptr(true), MessagePool: ptr(false)}, 5)
	logsPoison, keysPoison, _ := runScenario(t, g, EngineSpec{Seed: ptr[uint64](9), DeliveryLog: ptr(true), Poison: ptr(true)}, 5)

	for n := range logsOn {
		for i := range logsOn[n] {
			if logsOn[n][i] != logsOff[n][i] || logsOn[n][i] != logsPoison[n][i] {
				t.Fatalf("node %d log %d diverges: pool=%s nopool=%s poison=%s",
					n, i, logsOn[n][i], logsOff[n][i], logsPoison[n][i])
			}
		}
		if len(keysOn[n]) != len(keysOff[n]) || len(keysOn[n]) != len(keysPoison[n]) {
			t.Fatalf("node %d committed lengths diverge: %d/%d/%d",
				n, len(keysOn[n]), len(keysOff[n]), len(keysPoison[n]))
		}
		for i := range keysOn[n] {
			if keysOn[n][i] != keysOff[n][i] || keysOn[n][i] != keysPoison[n][i] {
				t.Fatalf("node %d committed key %d diverges", n, i)
			}
		}
	}

	// The sweep must also hold under the eager (deferral-off) dynamics,
	// which roll back and cancel far more aggressively.
	eagerOn, ekOn, _ := runScenario(t, g, EngineSpec{Seed: ptr[uint64](9), DeliveryLog: ptr(true), Deferral: ptr(false)}, 5)
	eagerPoison, ekP, pe := runScenario(t, g, EngineSpec{Seed: ptr[uint64](9), DeliveryLog: ptr(true), Deferral: ptr(false), Poison: ptr(true)}, 5)
	if pe.Sim().Pool().Violations() != 0 {
		t.Fatalf("eager poison violations = %d", pe.Sim().Pool().Violations())
	}
	for n := range eagerOn {
		for i := range eagerOn[n] {
			if eagerOn[n][i] != eagerPoison[n][i] {
				t.Fatalf("eager node %d log %d diverges", n, i)
			}
		}
		for i := range ekOn[n] {
			if ekOn[n][i] != ekP[n][i] {
				t.Fatalf("eager node %d key %d diverges", n, i)
			}
		}
	}
}

// A message annihilated while still pending (deferral buffer) must release
// cleanly under poison — the annihilation path is the one place a message
// dies without ever entering a history window.
func TestPoisonSurvivesPendingAnnihilation(t *testing.T) {
	g := topology.Sprintlink()
	for _, seed := range []uint64{1, 2, 3} {
		_, _, e := runScenario(t, g, EngineSpec{Seed: ptr[uint64](seed), Poison: ptr(true), DeferSlack: vtime.Dur(20 * vtime.Millisecond)}, 8)
		if v := e.Sim().Pool().Violations(); v != 0 {
			t.Fatalf("seed %d: poison violations = %d", seed, v)
		}
	}
}
