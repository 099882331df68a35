package record_test

import (
	"reflect"
	"sort"
	"testing"

	"defined/internal/lockstep"
	"defined/internal/msg"
	"defined/internal/record"
	"defined/internal/routing/api"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// A recording is a plain list of events; the order its externals replay
// in is decided where the replay reads it, in lockstep.New. The tests in
// this file pin that order from the recording's side: each group's
// externals reach round 0 sorted by (node, seq), ties kept in recording
// order, and every group an event names is replayed.

// tagEvent carries the index of its event in the recording, so a replayed
// external names the event it came from.
type tagEvent struct{ Index int }

func (tagEvent) ExternalKind() string { return "record-test-tag" }

type noopApp struct{}

func (noopApp) Init(msg.NodeID, []api.Neighbor)            {}
func (noopApp) HandleMessage(*msg.Message) []msg.Out       { return nil }
func (noopApp) HandleTimer(vtime.Time) []msg.Out           { return nil }
func (noopApp) HandleExternal(api.ExternalEvent) []msg.Out { return nil }
func (noopApp) State() api.State                           { return nil }
func (noopApp) Restore(api.State)                          {}

type triple struct {
	group uint64
	node  msg.NodeID
	seq   uint64
}

// tagged is a recording over groups whose i-th event is evs[i], carrying
// tagEvent{i}.
func tagged(groups uint64, evs []triple) *record.Recording {
	rec := &record.Recording{Ordering: "OO", BeaconInterval: vtime.BeaconInterval, ChainBound: 64, Groups: groups}
	for i, e := range evs {
		rec.Events = append(rec.Events, record.Event{
			Group: e.group, Seq: e.seq, Node: e.node, Kind: tagEvent{}.ExternalKind(), Payload: tagEvent{i},
		})
	}
	return rec
}

// replayExternals replays rec on a 6-node line of no-op applications and
// returns the recording indices of its externals in delivery order and
// the group the replay ended in. Every external must be delivered in
// round 0 of its own group, at its own node.
func replayExternals(t *testing.T, rec *record.Recording) ([]int, uint64) {
	t.Helper()
	g := topology.Line(6, vtime.Millisecond)
	apps := make([]api.Application, g.N)
	for i := range apps {
		apps[i] = noopApp{}
	}
	ls, err := lockstep.New(g, apps, rec)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for {
		d, ok := ls.StepEvent()
		if !ok {
			break
		}
		if !d.Key.IsExternal() {
			continue
		}
		if ls.CurrentRound() != 0 || d.Key.Group != ls.CurrentGroup() {
			t.Fatalf("external %v delivered in group %d round %d", d.Key, ls.CurrentGroup(), ls.CurrentRound())
		}
		i := d.Ext.(tagEvent).Index
		if e := rec.Events[i]; d.Node != e.Node || d.Key.Group != e.Group {
			t.Fatalf("event %d (%+v) delivered at node %d as %v", i, e, d.Node, d.Key)
		}
		got = append(got, i)
	}
	return got, ls.CurrentGroup()
}

func TestByGroupSorted(t *testing.T) {
	rec := tagged(3, []triple{{1, 5, 1}, {1, 5, 0}, {1, 2, 0}, {2, 1, 0}})
	got, _ := replayExternals(t, rec)
	if want := []int{2, 1, 0, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("externals replayed as recording indices %v, want %v", got, want)
	}
}

// referenceByGroup is group g's externals by a plain scan of the
// recording and a stable (node, seq) sort: the oracle for the replay's
// order.
func referenceByGroup(r *record.Recording, g uint64) []record.Event {
	var out []record.Event
	for _, e := range r.Events {
		if e.Group == g {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Whatever order a recording lists its externals in, the replay delivers
// them group by group in the reference scan's order, including a tie on
// (group, node, seq), which recording order decides.
func TestByGroupBucketedOrderPinned(t *testing.T) {
	rec := tagged(6, []triple{
		{2, 3, 0}, {0, 1, 0}, {2, 0, 1}, {1, 4, 0}, {2, 0, 0},
		{0, 1, 1}, {1, 4, 1}, {2, 3, 1}, {0, 0, 0}, {1, 0, 0},
		{5, 2, 0}, {2, 1, 0}, {0, 2, 0}, {5, 2, 1}, {1, 2, 0},
		{2, 0, 1}, // ties with index 2
	})
	var want []int
	for g := uint64(0); g <= 6; g++ {
		for _, e := range referenceByGroup(rec, g) {
			want = append(want, e.Payload.(tagEvent).Index)
		}
	}
	got, _ := replayExternals(t, rec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("externals replayed as recording indices %v, want %v", got, want)
	}
}

// The replay runs to the last group any event names, even past Groups.
func TestMaxGroup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rec    *record.Recording
		events int
		last   uint64
	}{
		{"last event in group 2", tagged(0, []triple{{0, 3, 0}, {0, 5, 1}, {2, 3, 0}}), 3, 2},
		{"event past Groups", tagged(2, []triple{{0, 1, 0}, {5, 2, 0}}), 2, 5},
		{"empty", tagged(0, nil), 0, 0},
	} {
		got, last := replayExternals(t, tc.rec)
		if len(got) != tc.events || last != tc.last {
			t.Fatalf("%s: %d externals, replay ended in group %d; want %d, group %d", tc.name, len(got), last, tc.events, tc.last)
		}
	}
}
