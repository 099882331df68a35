package record

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/rip"
	"defined/internal/vtime"
)

func sample() *Recording {
	return &Recording{
		Topology:       "sprintlink",
		Ordering:       "OO",
		Seed:           7,
		BeaconInterval: 250 * vtime.Millisecond,
		Events: []Event{
			{Group: 0, Seq: 0, Node: 3, Kind: "link-change", Payload: api.LinkChange{Peer: 5, Up: false}},
			{Group: 0, Seq: 1, Node: 5, Kind: "link-change", Payload: api.LinkChange{Peer: 3, Up: false}},
			{Group: 2, Seq: 0, Node: 3, Kind: "link-change", Payload: api.LinkChange{Peer: 5, Up: true}},
		},
	}
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
		r := &Recording{Ordering: "OO", Events: []Event{
			{Group: 2, Seq: 1, Node: 4, Offset: 3 * vtime.Millisecond, Kind: kind, Payload: ev},
		}}
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
