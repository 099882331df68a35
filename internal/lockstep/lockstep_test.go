package lockstep

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/record"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// floodApp mirrors the rollback package's test application so RB runs and
// LS replays can be compared end to end.
type floodApp struct {
	self      msg.NodeID
	neighbors []api.Neighbor
	st        *floodState
}

type floodState struct {
	seen map[int]bool
	log  []string
}

func (s *floodState) Clone() api.State {
	ns := &floodState{seen: make(map[int]bool, len(s.seen)), log: append([]string(nil), s.log...)}
	for k, v := range s.seen {
		ns.seen[k] = v
	}
	return ns
}

type injectEvent struct {
	Value int `json:"value"`
}

func (injectEvent) ExternalKind() string { return "ls-flood-inject" }

func newFloodApp() *floodApp { return &floodApp{st: &floodState{seen: map[int]bool{}}} }

func (a *floodApp) Init(self msg.NodeID, neighbors []api.Neighbor) {
	a.self, a.neighbors = self, neighbors
}

func (a *floodApp) take(v int, except msg.NodeID) []msg.Out {
	if a.st.seen[v] {
		return nil
	}
	a.st.seen[v] = true
	a.st.log = append(a.st.log, fmt.Sprintf("v%d", v))
	var outs []msg.Out
	for _, nb := range a.neighbors {
		if nb.ID != except {
			outs = append(outs, msg.Out{To: nb.ID, Payload: v})
		}
	}
	return outs
}

func (a *floodApp) HandleMessage(m *msg.Message) []msg.Out {
	return a.take(m.Payload.(int), m.From)
}

func (a *floodApp) HandleTimer(now vtime.Time) []msg.Out { return nil }

func (a *floodApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	if e, ok := ev.(injectEvent); ok {
		return a.take(e.Value, msg.None)
	}
	return nil
}

func (a *floodApp) State() api.State     { return a.st }
func (a *floodApp) Restore(st api.State) { a.st = st.(*floodState) }

func floodApps(n int) []api.Application {
	out := make([]api.Application, n)
	for i := range out {
		out[i] = newFloodApp()
	}
	return out
}

// produce runs a production network under DEFINED-RB over g, injecting
// nVals flood values, and returns the recording plus the per-node
// committed sequences and app logs.
func produce(t *testing.T, g *topology.Graph, seed uint64, nVals int) (*record.Recording, [][]ordering.Key, [][]string) {
	t.Helper()
	return produceWith(t, g, rollback.EngineSpec{Seed: &seed, JitterScale: ptr(4.0)}, nVals)
}

// produceWith is produce on an engine spec of the caller's; recording and
// the delivery log are always on.
func produceWith(t *testing.T, g *topology.Graph, spec rollback.EngineSpec, nVals int) (*record.Recording, [][]ordering.Key, [][]string) {
	t.Helper()
	apps := floodApps(g.N)
	spec.Record, spec.DeliveryLog = ptr(true), ptr(true)
	e := rollback.New(g, apps, spec)
	for v := 0; v < nVals; v++ {
		v := v
		node := msg.NodeID((v * 5) % g.N)
		at := vtime.Time(vtime.Duration(v) * 400 * vtime.Microsecond)
		e.Sim().ScheduleFn(at, func() { e.InjectExternal(node, injectEvent{Value: v}) })
	}
	e.Run(vtime.Time(2 * vtime.Second))
	if !e.RunQuiescent(2_000_000) {
		t.Fatal("production network did not quiesce")
	}
	keys := make([][]ordering.Key, g.N)
	logs := make([][]string, g.N)
	for i := 0; i < g.N; i++ {
		keys[i] = e.CommittedKeys(msg.NodeID(i))
		logs[i] = append([]string(nil), apps[i].(*floodApp).st.log...)
	}
	return e.Recording(), keys, logs
}

// TestTheorem1Reproducibility is the paper's core claim: replaying the
// partial recording in the lockstep debugging network reproduces the
// production network's execution exactly — every node's delivery sequence
// and final application state match.
func TestTheorem1Reproducibility(t *testing.T) {
	g := topology.Brite(12, 2, 21)
	for seed := uint64(0); seed < 5; seed++ {
		rec, rbKeys, rbLogs := produce(t, g, seed, 4)

		apps := floodApps(g.N)
		ls, err := New(g, apps, rec)
		if err != nil {
			t.Fatal(err)
		}
		n := ls.RunToEnd()
		if n == 0 {
			t.Fatal("replay did nothing")
		}
		if !ls.Done() {
			t.Fatal("replay not done after RunToEnd")
		}
		for i := 0; i < g.N; i++ {
			lsKeys := ls.DeliveredKeys(msg.NodeID(i))
			if !reflect.DeepEqual(rbKeys[i], lsKeys) {
				t.Fatalf("seed %d node %d: delivery sequences differ\nRB: %v\nLS: %v",
					seed, i, rbKeys[i], lsKeys)
			}
			lsLog := apps[i].(*floodApp).st.log
			if !reflect.DeepEqual(rbLogs[i], lsLog) {
				t.Fatalf("seed %d node %d: app logs differ\nRB: %v\nLS: %v",
					seed, i, rbLogs[i], lsLog)
			}
		}
	}
}

// TestTheorem1UnderRandomOrdering verifies reproducibility also holds for
// the RO ablation ordering: the production network enforces the random
// chain order, and the chain-sequential conservative replay reproduces it.
func TestTheorem1UnderRandomOrdering(t *testing.T) {
	g := topology.Brite(10, 2, 27)
	for seed := uint64(0); seed < 3; seed++ {
		apps := floodApps(g.N)
		e := rollback.New(g, apps, rollback.EngineSpec{
			Seed:         &seed,
			JitterScale:  ptr(3.0),
			Ordering:     "RO",
			OrderingSeed: ptr[uint64](777),
			Record:       ptr(true),
			DeliveryLog:  ptr(true),
		})
		for v := 0; v < 4; v++ {
			v := v
			node := msg.NodeID((v * 3) % g.N)
			e.Sim().ScheduleFn(vtime.Time(vtime.Duration(v)*300*vtime.Microsecond), func() {
				e.InjectExternal(node, injectEvent{Value: v})
			})
		}
		e.Run(vtime.Time(2 * vtime.Second))
		if !e.RunQuiescent(2_000_000) {
			t.Fatal("production did not quiesce")
		}
		rec := e.Recording()
		if rec.Ordering != "RO" {
			t.Fatalf("recording ordering = %q", rec.Ordering)
		}
		if rec.Seed != 777 {
			t.Fatalf("recording seed = %d, want the ordering seed 777", rec.Seed)
		}
		apps2 := floodApps(g.N)
		ls, err := New(g, apps2, rec)
		if err != nil {
			t.Fatal(err)
		}
		ls.RunToEnd()
		for i := 0; i < g.N; i++ {
			rb := e.CommittedKeys(msg.NodeID(i))
			lsk := ls.DeliveredKeys(msg.NodeID(i))
			if !reflect.DeepEqual(rb, lsk) {
				t.Fatalf("seed %d node %d: RO delivery sequences differ\nRB: %v\nLS: %v",
					seed, i, rb, lsk)
			}
			if !reflect.DeepEqual(apps[i].(*floodApp).st.log, apps2[i].(*floodApp).st.log) {
				t.Fatalf("seed %d node %d: RO app logs differ", seed, i)
			}
		}
	}
}

// TestTheorem1WithMessageLoss extends reproducibility to runs where the
// production network lost messages to link failures (footnote 4).
func TestTheorem1WithMessageLoss(t *testing.T) {
	g := topology.Brite(10, 2, 33)
	apps := floodApps(g.N)
	e := rollback.New(g, apps, rollback.EngineSpec{
		Seed: ptr[uint64](7), JitterScale: ptr(2.0), Record: ptr(true), DeliveryLog: ptr(true),
	})
	// Inject floods, then fail a link mid-flood so packets die in
	// flight, then more floods, then repair.
	for v := 0; v < 3; v++ {
		v := v
		e.Sim().ScheduleFn(vtime.Time(vtime.Duration(v)*200*vtime.Microsecond), func() {
			e.InjectExternal(msg.NodeID(v), injectEvent{Value: v})
		})
	}
	l := g.Links[0]
	e.Sim().ScheduleFn(vtime.Time(3*vtime.Millisecond), func() {
		if err := e.InjectLinkChange(l.A, l.B, false); err != nil {
			t.Errorf("link change: %v", err)
		}
	})
	e.Sim().ScheduleFn(vtime.Time(400*vtime.Millisecond), func() {
		e.InjectExternal(msg.NodeID(5), injectEvent{Value: 99})
	})
	e.Sim().ScheduleFn(vtime.Time(600*vtime.Millisecond), func() {
		if err := e.InjectLinkChange(l.A, l.B, true); err != nil {
			t.Errorf("link change: %v", err)
		}
	})
	e.Run(vtime.Time(2 * vtime.Second))
	if !e.RunQuiescent(2_000_000) {
		t.Fatal("did not quiesce")
	}
	rec := e.Recording()

	rbKeys := make([][]ordering.Key, g.N)
	for i := 0; i < g.N; i++ {
		rbKeys[i] = e.CommittedKeys(msg.NodeID(i))
	}

	apps2 := floodApps(g.N)
	ls, err := New(g, apps2, rec)
	if err != nil {
		t.Fatal(err)
	}
	ls.RunToEnd()
	for i := 0; i < g.N; i++ {
		if !reflect.DeepEqual(rbKeys[i], ls.DeliveredKeys(msg.NodeID(i))) {
			t.Fatalf("node %d: delivery sequences differ with loss replay", i)
		}
		if !reflect.DeepEqual(apps[i].(*floodApp).st.seen, apps2[i].(*floodApp).st.seen) {
			t.Fatalf("node %d: final states differ", i)
		}
	}
}

func TestStepGranularities(t *testing.T) {
	g := topology.Brite(8, 2, 5)
	rec, _, _ := produce(t, g, 1, 3)

	// Event stepping.
	ls1, _ := New(g, floodApps(g.N), rec)
	events := 0
	for {
		if _, ok := ls1.StepEvent(); !ok {
			break
		}
		events++
	}
	if events == 0 {
		t.Fatal("no events stepped")
	}

	// Round stepping must cover the same deliveries.
	ls2, _ := New(g, floodApps(g.N), rec)
	rounds, counted := 0, 0
	for {
		n, ok := ls2.StepRound()
		if !ok {
			break
		}
		rounds++
		counted += n
		if rounds > events {
			t.Fatal("round stepping ran away")
		}
	}
	if !ls2.Done() {
		t.Fatal("round stepping did not finish")
	}
	total := 0
	for i := 0; i < g.N; i++ {
		total += len(ls2.DeliveredKeys(msg.NodeID(i)))
	}
	if total != events || counted != events {
		t.Fatalf("round stepping delivered %d (counted %d), event stepping %d", total, counted, events)
	}
	if rounds >= events {
		t.Fatalf("rounds (%d) should batch events (%d)", rounds, events)
	}

	// Group stepping.
	ls3, _ := New(g, floodApps(g.N), rec)
	groups, counted3 := 0, 0
	for {
		n, ok := ls3.StepGroup()
		if !ok {
			break
		}
		groups++
		counted3 += n
		if groups > rounds+2 {
			t.Fatal("group stepping ran away")
		}
	}
	if !ls3.Done() {
		t.Fatal("group stepping did not finish")
	}
	total3 := 0
	for i := 0; i < g.N; i++ {
		total3 += len(ls3.DeliveredKeys(msg.NodeID(i)))
	}
	if total3 != events || counted3 != events {
		t.Fatalf("group stepping delivered %d (counted %d), want %d", total3, counted3, events)
	}
}

func TestStepInfoResponseTimes(t *testing.T) {
	g := topology.Sprintlink()
	rec, _, _ := produce(t, g, 2, 4)
	ls, _ := New(g, floodApps(g.N), rec)
	ls.RunToEnd()
	steps := ls.Steps()
	if len(steps) == 0 {
		t.Fatal("no steps recorded")
	}
	for _, s := range steps {
		if s.ResponseTime <= 0 {
			t.Fatalf("non-positive response time: %+v", s)
		}
		// Paper Figure 6c: every step under one second on Sprintlink.
		if s.ResponseTime > vtime.Second {
			t.Fatalf("step exceeded 1s: %+v", s)
		}
		if s.Deliveries <= 0 || s.ControlMessages <= 0 {
			t.Fatalf("step missing accounting: %+v", s)
		}
	}
}

func TestBreakpointPausesBeforeDelivery(t *testing.T) {
	g := topology.Brite(8, 2, 5)
	rec, _, _ := produce(t, g, 1, 3)
	apps := floodApps(g.N)
	ls, _ := New(g, apps, rec)
	target := msg.NodeID(3)
	ls.SetBreakpoint(func(d Delivery) bool {
		return d.Node == target && d.Msg != nil
	})
	ls.RunToEnd()
	hit := ls.BreakpointHit()
	if hit == nil {
		t.Fatal("breakpoint never fired")
	}
	if hit.Node != target || hit.Msg == nil {
		t.Fatalf("wrong breakpoint delivery: %+v", hit)
	}
	// The paused delivery has not executed yet; the step that resumes
	// delivers exactly it and clears the pause.
	paused := *hit
	before := len(ls.DeliveredKeys(target))
	ls.SetBreakpoint(nil)
	d, ok := ls.StepEvent()
	if !ok || !reflect.DeepEqual(d, paused) {
		t.Fatalf("resumed step delivered %+v, paused on %+v", d, paused)
	}
	if ls.BreakpointHit() != nil {
		t.Fatal("pause still reported after the resuming step")
	}
	if got := ls.DeliveredKeys(target); len(got) != before+1 || got[before] != paused.Key {
		t.Fatal("resume did not deliver the paused event")
	}
	ls.RunToEnd()
}

// noopApp is an application with no outputs and no state: a replay of it
// costs only the engine's own work.
type noopApp struct{}

func (noopApp) Init(msg.NodeID, []api.Neighbor)            {}
func (noopApp) HandleMessage(*msg.Message) []msg.Out       { return nil }
func (noopApp) HandleTimer(vtime.Time) []msg.Out           { return nil }
func (noopApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (noopApp) State() api.State                           { return nil }
func (noopApp) Restore(api.State)                          {}

// TestStepEventDoesNotAllocate pins the step loop's heap budget: a step
// stores its delivered key and, at the end of a round, its summary, and
// neither allocates once their logs are past the first segments. In
// particular the delivery StepEvent returns does not escape, with a
// breakpoint predicate installed, and a group's externals join round 0
// without allocating (the recording has one in every group).
func TestStepEventDoesNotAllocate(t *testing.T) {
	g := topology.Line(4, vtime.Millisecond)
	apps := []api.Application{noopApp{}, noopApp{}, noopApp{}, noopApp{}}
	rec := &record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64, Groups: 1000}
	for grp := uint64(0); grp < rec.Groups; grp++ {
		rec.Events = append(rec.Events, record.Event{
			Group: grp, Node: msg.NodeID(grp % 4), Kind: injectEvent{}.ExternalKind(), Payload: injectEvent{},
		})
	}
	ls, err := New(g, apps, rec)
	if err != nil {
		t.Fatal(err)
	}
	ls.SetBreakpoint(func(d Delivery) bool { return d.Node < 0 })
	// Steady state: every node's key log and the step log past their
	// growing segments (16+32+64+128 entries, one key per node per group
	// and one external per four groups).
	for i := 0; i < 300*g.N; i++ {
		if _, ok := ls.StepEvent(); !ok {
			t.Fatal("replay ended during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ls.StepEvent(); !ok {
			t.Fatal("replay ended")
		}
	})
	if allocs != 0 {
		t.Fatalf("StepEvent allocates %.2f times per call, want 0", allocs)
	}
	if ls.BreakpointHit() != nil {
		t.Fatal("a predicate that never fires paused the replay")
	}
}

func TestAlternativeOrderingExploresOtherPath(t *testing.T) {
	// §4 discussion: a troubleshooter can replay with a different
	// ordering function to explore execution paths that DEFINED-RB's
	// ordering would never produce — by editing a copy of the
	// recording's ordering and seed. The replay still runs to
	// completion; delivery sequences (generally) differ.
	g := topology.Brite(10, 2, 17)
	rec, rbKeys, _ := produce(t, g, 3, 5)
	alt := *rec
	alt.Ordering, alt.Seed = "RO", 1234
	ls, err := New(g, floodApps(g.N), &alt)
	if err != nil {
		t.Fatal(err)
	}
	ls.RunToEnd()
	same := true
	for i := 0; i < g.N && same; i++ {
		if !reflect.DeepEqual(rbKeys[i], ls.DeliveredKeys(msg.NodeID(i))) {
			same = false
		}
	}
	if same {
		t.Fatal("alternative ordering reproduced the identical execution; expected a different path")
	}
}

func TestPendingExposesNextDeliveries(t *testing.T) {
	g := topology.Brite(8, 2, 5)
	rec, _, _ := produce(t, g, 1, 2)
	ls, _ := New(g, floodApps(g.N), rec)
	// Advance until something is pending.
	for len(ls.Pending()) == 0 {
		if _, ok := ls.StepEvent(); !ok {
			t.Fatal("ran out before pending appeared")
		}
	}
	p := ls.Pending()
	if len(p) == 0 {
		t.Fatal("pending empty")
	}
	if p[0].String() == "" {
		t.Fatal("delivery must render")
	}
}

// TestNewValidation holds New to rejecting, with an error naming what is
// wrong, every recording it cannot replay as recorded.
func TestNewValidation(t *testing.T) {
	g := topology.Line(3, vtime.Millisecond)
	valid := record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64}
	for _, tc := range []struct {
		name string
		apps int
		edit func(*record.Recording)
		want string
	}{
		{"app count mismatch", 2, func(*record.Recording) {}, "2 apps for 3 nodes"},
		{"unknown ordering", 3, func(r *record.Recording) { r.Ordering = "nonsense" }, "nonsense"},
		{"beacon interval unset", 3, func(r *record.Recording) { r.BeaconInterval = 0 }, "beacon_interval"},
		{"beacon interval 100ms", 3, func(r *record.Recording) { r.BeaconInterval = 100 * vtime.Millisecond }, "beacon_interval"},
		{"chain bound unset", 3, func(r *record.Recording) { r.ChainBound = 0 }, "chain_bound"},
		{"event outside the graph", 3, func(r *record.Recording) {
			r.Events = []record.Event{{Node: 3, Kind: injectEvent{}.ExternalKind(), Payload: injectEvent{}}}
		}, "node 3 of 3"},
	} {
		rec := valid
		tc.edit(&rec)
		_, err := New(g, floodApps(tc.apps), &rec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New returned %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(g, floodApps(3), &valid); err != nil {
		t.Fatalf("valid recording: %v", err)
	}
}

func TestEmptyRecordingFinishesImmediately(t *testing.T) {
	g := topology.Line(3, vtime.Millisecond)
	rec := &record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64}
	ls, err := New(g, floodApps(3), rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := ls.RunToEnd(); n != 0 {
		// Groups=0 means only group 0 (no timer batches) is scanned.
		t.Fatalf("empty recording delivered %d events", n)
	}
	if !ls.Done() {
		t.Fatal("should be done")
	}
	if _, ok := ls.StepEvent(); ok {
		t.Fatal("stepping a finished replay must report done")
	}
}

// TestLogRendering holds the debugger's delivery log to its contract: a
// node's delivered keys render as non-empty lines, distinct within the
// node (a key names one delivery), and the replay delivered something.
func TestLogRendering(t *testing.T) {
	g := topology.Brite(8, 2, 5)
	rec, _, _ := produce(t, g, 1, 2)
	ls, _ := New(g, floodApps(g.N), rec)
	ls.RunToEnd()
	total := 0
	for i := 0; i < g.N; i++ {
		seen := map[string]bool{}
		for _, k := range ls.DeliveredKeys(msg.NodeID(i)) {
			line := k.String()
			if line == "" || seen[line] {
				t.Fatalf("node %d: key %+v renders as %q, empty or repeated", i, k, line)
			}
			seen[line] = true
		}
		total += len(seen)
	}
	if total == 0 {
		t.Fatal("no log lines rendered")
	}
}

// The replay engine's message lifecycle (pool-backed senders, release
// after delivery, loss-replay release) must be observationally invisible
// and survive a poison sweep with zero use-after-release — including under
// replayed message loss, the one path where a replay message dies without
// ever being delivered.
func TestReplayMessageLifecycle(t *testing.T) {
	g := topology.Brite(12, 2, 21)
	rec, rbKeys, _ := produce(t, g, 3, 4)

	run := func(poison bool) *Engine {
		apps := floodApps(g.N)
		ls, err := New(g, apps, rec)
		if err != nil {
			t.Fatal(err)
		}
		ls.MsgPool().SetPoison(poison)
		ls.RunToEnd()
		if !ls.Done() {
			t.Fatal("replay not done")
		}
		return ls
	}

	pooled := run(false)
	if pooled.MsgPool().Len() == 0 {
		t.Fatal("replay recycled no messages")
	}
	if live := pooled.MsgPool().Live(); live != 0 {
		t.Fatalf("finished replay holds %d live messages, want 0", live)
	}
	poisoned := run(true)
	if v := poisoned.MsgPool().Violations(); v != 0 {
		t.Fatalf("poison replay: %d use-after-release violations, want 0", v)
	}
	if poisoned.MsgPool().Quarantined() == 0 {
		t.Fatal("poison replay quarantined nothing — releases never happened")
	}
	for i := 0; i < g.N; i++ {
		n := msg.NodeID(i)
		if !reflect.DeepEqual(pooled.DeliveredKeys(n), poisoned.DeliveredKeys(n)) {
			t.Fatalf("node %d: delivery sequences diverge under poison", i)
		}
		if !reflect.DeepEqual(pooled.DeliveredKeys(n), rbKeys[i]) {
			t.Fatalf("node %d: pooled replay no longer reproduces production", i)
		}
	}
}

// TestChainBoundRolloverReproduces is RB ≡ LS on the one path a chain
// bound below the flood depth takes: a child past the bound starts a fresh
// chain in the next group, and replay holds it in the transmit queue until
// that group. Every flood value is injected in group 0 and floodApp's
// timers send nothing, so a message delivered in a later group is a
// rollover's descendant; each case must deliver one.
func TestChainBoundRolloverReproduces(t *testing.T) {
	for _, tg := range []struct {
		name string
		g    *topology.Graph
	}{
		{"brite10", topology.Brite(10, 2, 27)},
		{"line8", topology.Line(8, vtime.Millisecond)},
		{"sprintlink", topology.Sprintlink()},
	} {
		for _, ord := range []string{"OO", "RO"} {
			for bound := 1; bound <= 3; bound++ {
				name, g := fmt.Sprintf("%s/%s/bound%d", tg.name, ord, bound), tg.g
				rec, rbKeys, _ := produceWith(t, g, rollback.EngineSpec{
					Seed: ptr[uint64](1), JitterScale: ptr(4.0), Ordering: ord,
					OrderingSeed: ptr[uint64](99), ChainBound: ptr(bound),
				}, 4)
				ls, err := New(g, floodApps(g.N), rec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ls.RunToEnd()
				rolled := false
				for i := 0; i < g.N; i++ {
					got := ls.DeliveredKeys(msg.NodeID(i))
					if !reflect.DeepEqual(rbKeys[i], got) {
						t.Fatalf("%s node %d: delivery sequences differ\nRB: %v\nLS: %v", name, i, rbKeys[i], got)
					}
					for _, k := range got {
						rolled = rolled || (k.Class == ordering.ClassMessage && k.Group > 0)
					}
				}
				if !rolled {
					t.Fatalf("%s: no message was delivered past group 0; the rollover path did not run", name)
				}
			}
		}
	}
}

// TestConcurrentReplaysShareRecording runs two replays of one recording
// at once: New only reads the recording, so under -race this is clean and
// both reproduce production.
func TestConcurrentReplaysShareRecording(t *testing.T) {
	g := topology.Brite(10, 2, 27)
	rec, rbKeys, _ := produce(t, g, 2, 4)
	engines := make([]*Engine, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ls, err := New(g, floodApps(g.N), rec)
			if err == nil {
				ls.RunToEnd()
			}
			engines[i], errs[i] = ls, err
		}()
	}
	wg.Wait()
	for r, ls := range engines {
		if errs[r] != nil {
			t.Fatalf("replay %d: %v", r, errs[r])
		}
		for i := 0; i < g.N; i++ {
			if got := ls.DeliveredKeys(msg.NodeID(i)); !reflect.DeepEqual(rbKeys[i], got) {
				t.Fatalf("replay %d node %d: delivery sequences differ\nRB: %v\nLS: %v", r, i, rbKeys[i], got)
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }
