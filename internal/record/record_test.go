package record

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/rip"
	"defined/internal/vtime"
)

func sample() *Recording {
	r := &Recording{
		Topology:       "sprintlink",
		Ordering:       "OO",
		Seed:           7,
		BeaconInterval: 250 * vtime.Millisecond,
	}
	r.Append(Event{Group: 0, Seq: 0, Node: 3, Kind: "link-change", Payload: api.LinkChange{Peer: 5, Up: false}})
	r.Append(Event{Group: 0, Seq: 1, Node: 5, Kind: "link-change", Payload: api.LinkChange{Peer: 3, Up: false}})
	r.Append(Event{Group: 2, Seq: 0, Node: 3, Kind: "link-change", Payload: api.LinkChange{Peer: 5, Up: true}})
	return r
}

func TestRoundTrip(t *testing.T) {
	r := sample()
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != r.Topology || got.Ordering != r.Ordering || got.Seed != r.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.BeaconInterval != r.BeaconInterval {
		t.Fatalf("beacon interval = %v", got.BeaconInterval)
	}
	if len(got.Events) != 3 {
		t.Fatalf("events = %d", len(got.Events))
	}
	lc := got.Events[0].Payload.(api.LinkChange)
	if lc.Peer != 5 || lc.Up {
		t.Fatalf("payload = %+v", lc)
	}
}

func TestMaxGroup(t *testing.T) {
	r := sample()
	if r.MaxGroup() != 2 {
		t.Fatalf("MaxGroup = %d", r.MaxGroup())
	}
	empty := &Recording{}
	if empty.MaxGroup() != 0 {
		t.Fatal("empty MaxGroup should be 0")
	}
}

func TestByGroupSorted(t *testing.T) {
	r := &Recording{}
	r.Append(Event{Group: 1, Seq: 1, Node: 5, Kind: "link-change", Payload: api.LinkChange{}})
	r.Append(Event{Group: 1, Seq: 0, Node: 5, Kind: "link-change", Payload: api.LinkChange{}})
	r.Append(Event{Group: 1, Seq: 0, Node: 2, Kind: "link-change", Payload: api.LinkChange{}})
	r.Append(Event{Group: 2, Seq: 0, Node: 1, Kind: "link-change", Payload: api.LinkChange{}})
	evs := r.ByGroup(1)
	if len(evs) != 3 {
		t.Fatalf("ByGroup(1) = %d events", len(evs))
	}
	if evs[0].Node != 2 || evs[1].Node != 5 || evs[1].Seq != 0 || evs[2].Seq != 1 {
		t.Fatalf("ByGroup order wrong: %+v", evs)
	}
	if len(r.ByGroup(99)) != 0 {
		t.Fatal("missing group should be empty")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	blob := `{"topology":"t","ordering":"OO","seed":0,"beacon_interval":1,
		"events":[{"group":0,"seq":0,"node":1,"kind":"no-such-kind","payload":{}}]}`
	if _, err := Decode(strings.NewReader(blob)); err == nil {
		t.Fatal("unknown kind should fail to decode")
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON should error")
	}
	blob := `{"events":[{"group":0,"seq":0,"node":1,"kind":"link-change","payload":"not-an-object"}]}`
	if _, err := Decode(strings.NewReader(blob)); err == nil {
		t.Fatal("malformed payload should error")
	}
}

// TestDecodeEveryKind round-trips one event of every external kind the
// repository defines: a saved recording of any workload must reload.
func TestDecodeEveryKind(t *testing.T) {
	key := ordering.Key{Group: 4, Class: ordering.ClassMessage, Delay: 4697, Origin: 9, Seq: 46, From: 9, LinkSeq: 34}
	for _, ev := range []api.ExternalEvent{
		api.LinkChange{Peer: 5, Up: true},
		api.PeerRestart{Peer: 3},
		LossEvent{Key: key, To: 23},
		rip.Originate{Prefix: "10.0.0.0/8", Metric: 2},
		rip.Crash{},
		bgp.Announce{Path: bgp.Path{Name: "p1", Prefix: "10.1.0.0/16", ASPathLen: 3, NeighborAS: 65001, MED: 10, IGPDist: 7}},
	} {
		kind := ev.ExternalKind()
		r := &Recording{Ordering: "OO"}
		r.Append(Event{Group: 2, Seq: 1, Node: 4, Offset: 3 * vtime.Millisecond, Kind: kind, Payload: ev})
		var buf bytes.Buffer
		if err := r.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", kind, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Errorf("%s: decode: %v", kind, err)
			continue
		}
		if !reflect.DeepEqual(got.Events, r.Events) {
			t.Errorf("%s: round trip gave %+v, want %+v", kind, got.Events, r.Events)
		}
	}
}

// referenceByGroup is the original O(E) per-call implementation, kept as
// the oracle for the bucketed index.
func referenceByGroup(r *Recording, g uint64) []Event {
	var out []Event
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

// The bucketed ByGroup must return identical (node, seq) order to the
// reference scan for every group, reuse its index across calls, and
// rebuild after direct appends.
func TestByGroupBucketedOrderPinned(t *testing.T) {
	r := &Recording{}
	rnd := []struct {
		g    uint64
		node msg.NodeID
		seq  uint64
	}{
		{2, 3, 0}, {0, 1, 0}, {2, 0, 1}, {1, 4, 0}, {2, 0, 0},
		{0, 1, 1}, {1, 4, 1}, {2, 3, 1}, {0, 0, 0}, {1, 0, 0},
		{5, 2, 0}, {2, 1, 0}, {0, 2, 0}, {5, 2, 1}, {1, 2, 0},
	}
	for _, e := range rnd {
		r.Append(Event{Group: e.g, Seq: e.seq, Node: e.node, Kind: "link-change", Payload: api.LinkChange{}})
	}
	for g := uint64(0); g <= 6; g++ {
		got := r.ByGroup(g)
		want := referenceByGroup(r, g)
		if len(got) != len(want) {
			t.Fatalf("group %d: %d events, want %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i].Node != want[i].Node || got[i].Seq != want[i].Seq {
				t.Fatalf("group %d event %d: (node %d, seq %d), want (node %d, seq %d)",
					g, i, got[i].Node, got[i].Seq, want[i].Node, want[i].Seq)
			}
		}
	}
	// Repeated calls reuse the same index (no rebuild, stable aliasing).
	a, b := r.ByGroup(2), r.ByGroup(2)
	if len(a) > 0 && &a[0] != &b[0] {
		t.Fatal("repeated ByGroup calls should reuse the bucketed index")
	}
	// A direct append invalidates and rebuilds.
	r.Append(Event{Group: 2, Seq: 2, Node: 0, Kind: "link-change", Payload: api.LinkChange{}})
	after := r.ByGroup(2)
	if len(after) != len(a)+1 {
		t.Fatalf("index not rebuilt after append: %d events, want %d", len(after), len(a)+1)
	}
	if want := referenceByGroup(r, 2); after[len(after)-1].Seq != want[len(want)-1].Seq {
		t.Fatalf("rebuilt order wrong: %+v", after)
	}
}

// FuzzDecode holds Decode to its contract on arbitrary bytes: it returns
// an error or a recording, never panics, and a recording it accepts
// survives Encode then Decode unchanged (and encodes to the same bytes
// again). The seed corpus under testdata/fuzz is built from the committed
// ebone recording, link changes and message losses both, plus one file
// holding an event of every kind.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := r.Encode(&enc); err != nil {
			t.Fatalf("accepted recording does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("encoded recording does not decode: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("Encode then Decode changed the recording:\n%+v\n%+v", r, again)
		}
		var enc2 bytes.Buffer
		if err := again.Encode(&enc2); err != nil || !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("re-encoding is not stable (err %v):\n%s\n%s", err, enc.Bytes(), enc2.Bytes())
		}
	})
}
