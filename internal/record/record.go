// Package record implements DEFINED's partial recordings: the log of
// *external* events a production network captures so that a debugging
// network can replay them (paper §1–2). Because DEFINED-RB makes all
// internal nondeterminism deterministic, these partial recordings — orders
// of magnitude smaller than the comprehensive logs of Friday/OFRewind —
// suffice to reproduce an execution exactly.
//
// A recording stores, per external event, the node it applied at, the
// beacon group it was tagged with, and its in-group sequence number; that
// triple is all DEFINED-LS needs to replay events in the right timestep.
// Recordings serialize to JSON. The decoder knows every external event
// kind the repository defines (decodePayload); a kind outside that set
// fails to decode.
package record

import (
	"encoding/json"
	"fmt"
	"io"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/rip"
	"defined/internal/vtime"
)

// LossEvent records a message lost in flight in the production network
// (link failed mid-flight, destination down). The paper's footnote 4 notes
// loss events must be recorded and replayed for determinism when loss can
// happen. The message is identified by its ordering key — the causal
// identity that the replay regenerates — plus the destination.
type LossEvent struct {
	Key ordering.Key `json:"key"`
	To  msg.NodeID   `json:"to"`
}

// ExternalKind implements api.ExternalEvent.
func (LossEvent) ExternalKind() string { return "message-loss" }

// Event is one recorded external event.
type Event struct {
	// Group is the beacon group (timestep) the event was tagged with.
	Group uint64 `json:"group"`
	// Seq is the event's index among the externals applied at this node
	// during this group.
	Seq uint64 `json:"seq"`
	// Node is where the event applied.
	Node msg.NodeID `json:"node"`
	// Offset is the event's time offset from the group boundary; it
	// anchors the d_i of the causal chains the event starts, so replay
	// regenerates identical annotations.
	Offset vtime.Duration `json:"offset"`
	// Kind is the payload codec name (api.ExternalEvent.ExternalKind).
	Kind string `json:"kind"`
	// Payload is the protocol-specific event body.
	Payload api.ExternalEvent `json:"-"`
}

// Recording is the partial recording of one production run. It is a plain
// value that no method writes: the production engine appends to Events
// while it records, and a replay only reads it (lockstep.New copies what
// it needs), so one recording can feed any number of concurrent replays.
type Recording struct {
	// Topology names the graph the run used (informational).
	Topology string `json:"topology"`
	// Ordering names the ordering function ("OO"/"RO"); Seed is the RO
	// seed. The debugging network must use the identical function.
	Ordering string `json:"ordering"`
	Seed     uint64 `json:"seed"`
	// BeaconInterval is the group width used during recording; it is
	// always vtime.BeaconInterval, and replay rejects any other value.
	BeaconInterval vtime.Duration `json:"beacon_interval"`
	// ChainBound is the per-timestep causal chain cap used during
	// recording; replay must bound chains identically.
	ChainBound int `json:"chain_bound"`
	// ProcEstimate is the per-hop processing cost folded into d_i
	// during recording; replay must use the identical value.
	ProcEstimate vtime.Duration `json:"proc_estimate"`
	// Groups is the number of beacon groups the production run executed
	// (timer batches fired); replay drives the same number, unbounded: a
	// caller that decodes recordings from outside bounds it itself.
	Groups uint64 `json:"groups"`
	// Events is the recorded external event log, in application order.
	Events []Event `json:"events"`
}

// ---- serialization ----------------------------------------------------------

// wireEvent is the JSON shape of Event (payload as raw message).
type wireEvent struct {
	Group   uint64          `json:"group"`
	Seq     uint64          `json:"seq"`
	Node    msg.NodeID      `json:"node"`
	Offset  vtime.Duration  `json:"offset"`
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

type wireRecording struct {
	Topology       string         `json:"topology"`
	Ordering       string         `json:"ordering"`
	Seed           uint64         `json:"seed"`
	BeaconInterval vtime.Duration `json:"beacon_interval"`
	ChainBound     int            `json:"chain_bound"`
	ProcEstimate   vtime.Duration `json:"proc_estimate"`
	Groups         uint64         `json:"groups"`
	Events         []wireEvent    `json:"events"`
}

// Encode writes the recording as JSON.
func (r *Recording) Encode(w io.Writer) error {
	wr := wireRecording{
		Topology:       r.Topology,
		Ordering:       r.Ordering,
		Seed:           r.Seed,
		BeaconInterval: r.BeaconInterval,
		ChainBound:     r.ChainBound,
		ProcEstimate:   r.ProcEstimate,
		Groups:         r.Groups,
		Events:         make([]wireEvent, 0, len(r.Events)),
	}
	for _, e := range r.Events {
		raw, err := json.Marshal(e.Payload)
		if err != nil {
			return fmt.Errorf("record: encoding %s payload: %w", e.Kind, err)
		}
		wr.Events = append(wr.Events, wireEvent{
			Group: e.Group, Seq: e.Seq, Node: e.Node, Offset: e.Offset, Kind: e.Kind, Payload: raw,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&wr)
}

// Decode reads a JSON recording, decoding each payload by its kind.
func Decode(rd io.Reader) (*Recording, error) {
	var wr wireRecording
	if err := json.NewDecoder(rd).Decode(&wr); err != nil {
		return nil, fmt.Errorf("record: decoding: %w", err)
	}
	r := &Recording{
		Topology:       wr.Topology,
		Ordering:       wr.Ordering,
		Seed:           wr.Seed,
		BeaconInterval: wr.BeaconInterval,
		ChainBound:     wr.ChainBound,
		ProcEstimate:   wr.ProcEstimate,
		Groups:         wr.Groups,
		Events:         make([]Event, 0, len(wr.Events)),
	}
	for _, we := range wr.Events {
		payload, err := decodePayload(we.Kind, we.Payload)
		if err != nil {
			return nil, fmt.Errorf("record: decoding %s payload: %w", we.Kind, err)
		}
		r.Events = append(r.Events, Event{
			Group: we.Group, Seq: we.Seq, Node: we.Node, Offset: we.Offset, Kind: we.Kind, Payload: payload,
		})
	}
	return r, nil
}

// decodePayload decodes one event body by its kind: the closed set of
// external events the engines and daemons define.
func decodePayload(kind string, raw json.RawMessage) (api.ExternalEvent, error) {
	switch kind {
	case api.LinkChange{}.ExternalKind():
		return decodeAs[api.LinkChange](raw)
	case api.PeerRestart{}.ExternalKind():
		return decodeAs[api.PeerRestart](raw)
	case LossEvent{}.ExternalKind():
		return decodeAs[LossEvent](raw)
	case rip.Originate{}.ExternalKind():
		return decodeAs[rip.Originate](raw)
	case rip.Crash{}.ExternalKind():
		return decodeAs[rip.Crash](raw)
	case bgp.Announce{}.ExternalKind():
		return decodeAs[bgp.Announce](raw)
	}
	return nil, fmt.Errorf("unknown event kind %q", kind)
}

// decodeAs unmarshals raw into a T.
func decodeAs[T api.ExternalEvent](raw json.RawMessage) (api.ExternalEvent, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}
