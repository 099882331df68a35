package debugger

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"defined/internal/lockstep"
	"defined/internal/msg"
	"defined/internal/record"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/routing/ospf"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// produce records a small OSPF run to debug.
func produce(t *testing.T) (*topology.Graph, *record.Recording) {
	t.Helper()
	g, e := produceEngine(t)
	return g, e.Recording()
}

// produceEngine runs produce's production network and returns its engine,
// committed delivery logs kept.
func produceEngine(t *testing.T) (*topology.Graph, *rollback.Engine) {
	t.Helper()
	g := topology.Brite(8, 2, 3)
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	e := rollback.New(g, apps, rollback.EngineSpec{Seed: ptr[uint64](1), Record: ptr(true), DeliveryLog: ptr(true)})
	l := g.Links[0]
	e.Sim().ScheduleFn(vtime.Time(10*vtime.Millisecond), func() {
		if err := e.InjectLinkChange(l.A, l.B, false); err != nil {
			t.Errorf("inject: %v", err)
		}
	})
	e.Run(vtime.Time(1 * vtime.Second))
	if !e.RunQuiescent(2_000_000) {
		t.Fatal("production did not quiesce")
	}
	return g, e
}

func session(t *testing.T, g *topology.Graph, rec *record.Recording, script string) string {
	t.Helper()
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	ls, err := lockstep.New(g, apps, rec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := New(ls, strings.NewReader(script), &out)
	s.Run()
	return out.String()
}

func TestScriptedSession(t *testing.T) {
	g, rec := produce(t)
	out := session(t, g, rec, `
where
step 3
pending
round
group
log 0
continue
state 0
where
quit
`)
	for _, want := range []string{
		"defined-ls debugger",
		"group",
		"node",
		"replay complete",
		"dest", // OSPF DumpTable output
	} {
		if !strings.Contains(out, want) {
			t.Errorf("session output missing %q\n---\n%s", want, out)
		}
	}
}

// TestLogMatchesCommittedOrder holds `log N` to its contract: after a
// complete replay it prints node N's production committed order, one key a
// line, and nothing else.
func TestLogMatchesCommittedOrder(t *testing.T) {
	g, e := produceEngine(t)
	for _, n := range []msg.NodeID{0, 3} {
		out := session(t, g, e.Recording(), fmt.Sprintf("continue\nlog %d\nquit\n", n))
		// Banner, continue's output, log's output, quit's.
		parts := strings.Split(out, "(defined) ")
		if len(parts) != 4 {
			t.Fatalf("unexpected session output:\n%s", out)
		}
		block := parts[2]
		var want strings.Builder
		for _, k := range e.CommittedKeys(n) {
			fmt.Fprintf(&want, "  %s\n", k.String())
		}
		if want.Len() == 0 {
			t.Fatalf("node %d committed nothing", n)
		}
		if block != want.String() {
			t.Errorf("log %d printed\n%s\nwant production's committed order\n%s", n, block, want.String())
		}
	}
}

func TestBreakpointCommands(t *testing.T) {
	g, rec := produce(t)
	out := session(t, g, rec, `
break node 2
continue
clear
continue
quit
`)
	if !strings.Contains(out, "breakpoint: node 2") {
		t.Errorf("breakpoint did not fire:\n%s", out)
	}
	if !strings.Contains(out, "replay complete") {
		t.Errorf("replay did not finish after clear:\n%s", out)
	}
}

func TestBreakOnMessage(t *testing.T) {
	g, rec := produce(t)
	out := session(t, g, rec, `
break msg node
continue
quit
`)
	// "break msg node" matches any delivery rendering containing "node",
	// which every message delivery does.
	if !strings.Contains(out, "breakpoint:") {
		t.Errorf("message breakpoint did not fire:\n%s", out)
	}
}

func TestErrorHandling(t *testing.T) {
	g, rec := produce(t)
	out := session(t, g, rec, `
bogus
break
break node abc
state
state 999
log 999
help
quit
`)
	for _, want := range []string{
		"unknown command",
		"usage: break",
		"bad node id",
		"usage: state",
		"commands:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestEOFEndsSession(t *testing.T) {
	g, rec := produce(t)
	out := session(t, g, rec, "step 2\n") // no quit: EOF
	if !strings.Contains(out, "(defined)") {
		t.Errorf("prompt missing:\n%s", out)
	}
}

func appsFor(g *topology.Graph) []api.Application {
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	return apps
}

func TestStepPastEnd(t *testing.T) {
	g, rec := produce(t)
	apps := appsFor(g)
	ls, _ := lockstep.New(g, apps, rec)
	var out bytes.Buffer
	s := New(ls, strings.NewReader("continue\nstep\nround\ngroup\nquit\n"), &out)
	s.Run()
	if c := strings.Count(out.String(), "replay complete"); c < 3 {
		t.Errorf("stepping past the end should keep reporting completion (%d):\n%s", c, out.String())
	}
}

// TestRunCountsEveryCommand holds Run's result to what the replay really
// delivered, the sum of every node's DeliveredKeys: each stepping command
// — step, round, group, and continue up to a breakpoint and past it —
// adds its deliveries, and a paused delivery counts only once it runs.
func TestRunCountsEveryCommand(t *testing.T) {
	g, rec := produce(t)
	for _, script := range []string{
		"round\nround\ngroup\nquit\n",
		"step 3\nround\ngroup\ngroup\nbreak node 2\ncontinue\nround\nclear\ngroup\nquit\n",
		"group\nbreak node 5\ncontinue\ncontinue\nstep 2\nclear\ncontinue\nround\nquit\n",
	} {
		ls, err := lockstep.New(g, appsFor(g), rec)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		got := New(ls, strings.NewReader(script), &out).Run()
		want := 0
		for n := range g.N {
			want += len(ls.DeliveredKeys(msg.NodeID(n)))
		}
		if want == 0 || got != want {
			t.Errorf("script %q: Run returned %d, the nodes delivered %d", script, got, want)
		}
	}
}

func TestNonDumperStateFallsBack(t *testing.T) {
	// An app without DumpTable gets the %+v fallback.
	g := topology.Line(2, vtime.Millisecond)
	rec := &record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64}
	apps := []api.Application{&plainApp{}, &plainApp{}}
	ls, err := lockstep.New(g, apps, rec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := New(ls, strings.NewReader("state 0\nquit\n"), &out)
	s.Run()
	if !strings.Contains(out.String(), "node 0:") {
		t.Errorf("fallback state dump missing:\n%s", out.String())
	}
}

// TestPendingListsTwenty holds pending's listing to twenty lines and a
// tail line that counts only what it left out. After group, the next
// group's timer batches are pending, one per node: on a 20-node line all
// of them are listed and no tail follows, on 21 nodes one is left out.
func TestPendingListsTwenty(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		tail  string
	}{{20, ""}, {21, "     ... 1 more\n"}} {
		g := topology.Line(tc.nodes, vtime.Millisecond)
		rec := &record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64, Groups: 3}
		apps := make([]api.Application, g.N)
		for i := range apps {
			apps[i] = &plainApp{}
		}
		ls, err := lockstep.New(g, apps, rec)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		s := New(ls, strings.NewReader(""), &out)
		s.Execute("group")
		out.Reset()
		s.Execute("pending")
		want := ""
		for i := 0; i < 20; i++ {
			want += fmt.Sprintf("%3d: node %d ← timer batch g2\n", i, i)
		}
		if got := out.String(); got != want+tc.tail {
			t.Errorf("%d pending: got\n%s\nwant\n%s", tc.nodes, got, want+tc.tail)
		}
	}
}

type plainApp struct{ st plainState }

type plainState struct{ N int }

func (p plainState) Clone() api.State { return p }

func (a *plainApp) Init(msg.NodeID, []api.Neighbor)            {}
func (a *plainApp) HandleMessage(*msg.Message) []msg.Out       { return nil }
func (a *plainApp) HandleTimer(vtime.Time) []msg.Out           { return nil }
func (a *plainApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (a *plainApp) State() api.State                           { return a.st }
func (a *plainApp) Restore(st api.State)                       { a.st = st.(plainState) }
func (a *plainApp) String() string                             { return fmt.Sprintf("plain%d", a.st.N) }

// Execute is the documented scripted-session entry point: empty and
// whitespace-only lines must be a no-op that keeps the session alive, not
// a fields[0] panic (regression: Run guarded blank lines, Execute didn't).
func TestExecuteEmptyLineIsNoOp(t *testing.T) {
	g, rec := produce(t)
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	ls, err := lockstep.New(g, apps, rec)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := New(ls, strings.NewReader(""), &out)
	for _, line := range []string{"", "   ", "\t", " \t  "} {
		if !s.Execute(line) {
			t.Fatalf("Execute(%q) ended the session, want no-op continue", line)
		}
	}
	if got := out.String(); got != "" {
		t.Fatalf("blank lines should produce no output, got %q", got)
	}
	// The session must still work after blank input.
	if !s.Execute("step") {
		t.Fatal("session should survive past blank lines")
	}
	if !strings.Contains(out.String(), "timer batch") && !strings.Contains(out.String(), "←") {
		t.Fatalf("step after blank lines produced unexpected output: %q", out.String())
	}
}

func ptr[T any](v T) *T { return &v }
