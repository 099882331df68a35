package defined_test

import (
	"fmt"
	"slices"
	"testing"

	"defined"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// sliceApp sends an int to each neighbor on its first three timer batches
// and logs what it receives; the node marked bad answers every message
// with a []int, a payload lazy cancellation cannot compare.
type sliceApp struct {
	self      defined.NodeID
	neighbors []defined.Neighbor
	bad       bool
	st        *logState
}

type logState struct{ log []string }

func (s *logState) Clone() api.State { return &logState{log: slices.Clone(s.log)} }

func (a *sliceApp) Init(self defined.NodeID, neighbors []defined.Neighbor) {
	a.self, a.neighbors, a.st = self, neighbors, &logState{}
}

func (a *sliceApp) HandleTimer(now defined.Time) []defined.Out {
	g := vtime.GroupOf(now, vtime.BeaconInterval)
	if g == 0 || g > 3 {
		return nil
	}
	var outs []defined.Out
	for _, nb := range a.neighbors {
		outs = append(outs, defined.Out{To: nb.ID, Payload: int(a.self)*10 + int(g)})
	}
	return outs
}

func (a *sliceApp) HandleMessage(m *defined.Message) []defined.Out {
	a.st.log = append(a.st.log, fmt.Sprintf("%d:%v", m.From, m.Payload))
	if a.bad {
		return []defined.Out{{To: m.From, Payload: []int{m.Payload.(int)}}}
	}
	return nil
}

func (a *sliceApp) HandleExternal(defined.ExternalEvent) []defined.Out { return nil }
func (a *sliceApp) State() api.State                                   { return a.st }
func (a *sliceApp) Restore(st api.State)                               { a.st = st.(*logState) }

// TestIncomparablePayloadQuarantinesSender runs a triangle whose node 2
// sends a []int: its first send panics inside the handler, DEFINED-RB
// quarantines the node as it does any handler panic, and the run commits
// the same order on every node under every jitter seed.
func TestIncomparablePayloadQuarantinesSender(t *testing.T) {
	ms := defined.Millisecond
	g, err := defined.NewTopology("triangle", 3, []defined.Link{
		{A: 0, B: 1, Delay: 5 * ms, Jitter: 2 * ms},
		{A: 1, B: 2, Delay: 4 * ms, Jitter: 3 * ms},
		{A: 0, B: 2, Delay: 6 * ms, Jitter: 2 * ms},
	})
	if err != nil {
		t.Fatal(err)
	}
	var first [][]string
	for seed := uint64(1); seed <= 3; seed++ {
		apps := []defined.Application{&sliceApp{}, &sliceApp{}, &sliceApp{bad: true}}
		net := mustNet(t, g, apps, defined.EngineSpec{Seed: &seed, JitterScale: ptr(4.0), DeliveryLog: ptr(true)})
		net.Run(defined.Seconds(1.5))
		if !net.Drain() {
			t.Fatalf("seed %d: network did not drain", seed)
		}
		if got := net.Stats().PanicCrashes; got != 1 {
			t.Fatalf("seed %d: PanicCrashes = %d, want 1", seed, got)
		}
		if !net.Crashed(2) {
			t.Fatalf("seed %d: the sender of the []int is not quarantined", seed)
		}
		orders := make([][]string, g.N)
		for i := range orders {
			orders[i] = net.CommittedOrder(defined.NodeID(i))
		}
		if len(orders[0]) == 0 || len(orders[1]) == 0 {
			t.Fatalf("seed %d: healthy nodes committed nothing", seed)
		}
		if first == nil {
			first = orders
			continue
		}
		for i := range orders {
			if !slices.Equal(orders[i], first[i]) {
				t.Fatalf("seed %d: node %d committed %v, seed 1 committed %v", seed, i, orders[i], first[i])
			}
		}
	}
}
