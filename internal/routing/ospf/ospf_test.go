package ospf

import (
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// wire connects daemons directly for unit tests (no simulator): outputs
// are delivered immediately in queue order.
type wire struct {
	daemons map[msg.NodeID]*Daemon
	queue   []*msg.Message
	seq     uint64
}

func newWire() *wire { return &wire{daemons: map[msg.NodeID]*Daemon{}} }

func (w *wire) add(id msg.NodeID, neighbors []api.Neighbor, cfg Config) *Daemon {
	d := New(cfg)
	d.Init(id, neighbors)
	w.daemons[id] = d
	return d
}

func (w *wire) push(from msg.NodeID, outs []msg.Out) {
	for _, o := range outs {
		w.seq++
		w.queue = append(w.queue, &msg.Message{
			ID: msg.ID{Sender: from, Seq: w.seq}, From: from, To: o.To,
			Kind: msg.KindApp, Payload: o.Payload,
		})
	}
}

func (w *wire) drain(t *testing.T) {
	t.Helper()
	for steps := 0; len(w.queue) > 0; steps++ {
		if steps > 100000 {
			t.Fatal("wire did not drain")
		}
		m := w.queue[0]
		w.queue = w.queue[1:]
		if d, ok := w.daemons[m.To]; ok {
			w.push(m.To, d.HandleMessage(m))
		}
	}
}

// line3 builds a 3-node line 0-1-2 with unit costs.
func line3(cfg Config) (*wire, *Daemon, *Daemon, *Daemon) {
	w := newWire()
	d0 := w.add(0, []api.Neighbor{{ID: 1, Cost: 1}}, cfg)
	d1 := w.add(1, []api.Neighbor{{ID: 0, Cost: 1}, {ID: 2, Cost: 1}}, cfg)
	d2 := w.add(2, []api.Neighbor{{ID: 1, Cost: 1}}, cfg)
	return w, d0, d1, d2
}

// converge floods everyone's current LSDB once.
func converge(t *testing.T, w *wire) {
	t.Helper()
	for id, d := range w.daemons {
		for _, other := range w.daemons {
			if other == d {
				continue
			}
			_ = other
		}
		w.push(id, d.appendDatabase(nil, anyNeighbor(d)))
	}
	// Simpler: have every daemon flood its own LSA to neighbors.
	for id, d := range w.daemons {
		lsa := d.st.lsdb[d.self]
		w.push(id, d.appendFlood(nil, lsa, msg.None))
	}
	w.drain(t)
}

func anyNeighbor(d *Daemon) msg.NodeID {
	if len(d.neighbors) == 0 {
		return msg.None
	}
	return d.neighbors[0].ID
}

func TestSPFOnLine(t *testing.T) {
	w, d0, d1, d2 := line3(Config{})
	converge(t, w)
	if !d0.Reachable(2) || d0.NextHop(2) != 1 {
		t.Fatalf("d0 route to 2: %v via %v", d0.Reachable(2), d0.NextHop(2))
	}
	r := d0.RoutingTable()[2]
	if r.Cost != 2 {
		t.Fatalf("cost to 2 = %d, want 2", r.Cost)
	}
	if d1.NextHop(0) != 0 || d1.NextHop(2) != 2 {
		t.Fatal("middle node next hops wrong")
	}
	if d2.LSDBSize() != 3 {
		t.Fatalf("d2 LSDB = %d, want 3", d2.LSDBSize())
	}
	if d0.NextHop(99) != msg.None {
		t.Fatal("unknown destination should be None")
	}
}

func TestLinkFailureReconverges(t *testing.T) {
	// Square: 0-1, 1-2, 2-3, 3-0. Failing 0-1 forces 0→1 via 3,2.
	w := newWire()
	w.add(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 3, Cost: 1}}, Config{})
	w.add(1, []api.Neighbor{{ID: 0, Cost: 1}, {ID: 2, Cost: 1}}, Config{})
	w.add(2, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 3, Cost: 1}}, Config{})
	w.add(3, []api.Neighbor{{ID: 2, Cost: 1}, {ID: 0, Cost: 1}}, Config{})
	converge(t, w)
	d0 := w.daemons[0]
	if d0.NextHop(1) != 1 {
		t.Fatalf("before failure: next hop %v", d0.NextHop(1))
	}
	// Fail 0-1 (both endpoints notified, as the substrate does).
	w.push(0, d0.HandleExternal(api.LinkChange{Peer: 1, Up: false}))
	w.push(1, w.daemons[1].HandleExternal(api.LinkChange{Peer: 0, Up: false}))
	w.drain(t)
	if got := d0.NextHop(1); got != 3 {
		t.Fatalf("after failure: next hop to 1 = %v, want 3", got)
	}
	if d0.AdjacencyUp(1) {
		t.Fatal("adjacency 0-1 should be down")
	}
	// Repair and verify the direct route returns.
	w.push(0, d0.HandleExternal(api.LinkChange{Peer: 1, Up: true}))
	w.push(1, w.daemons[1].HandleExternal(api.LinkChange{Peer: 0, Up: true}))
	w.drain(t)
	if got := d0.NextHop(1); got != 1 {
		t.Fatalf("after repair: next hop to 1 = %v, want 1", got)
	}
}

func TestStaleLSAIgnored(t *testing.T) {
	w, d0, d1, _ := line3(Config{})
	converge(t, w)
	// Replay an old LSA of node 0 at node 1: must be ignored.
	stale := &LSA{Origin: 0, Seq: 1, Links: nil}
	if outs := d1.onLSA(stale, 0); outs != nil {
		t.Fatal("stale LSA must not flood")
	}
	if _, ok := d1.costTo(d1.lsaOf(0), 1); !ok {
		t.Fatal("LSDB corrupted by stale LSA")
	}
	_ = d0
}

func TestHelloKeepsAdjacencyAlive(t *testing.T) {
	cfg := Config{HelloInterval: vtime.Second}
	w, d0, d1, _ := line3(cfg)
	converge(t, w)
	// Tick both sides for 10 s, exchanging hellos: adjacency stays up.
	for s := vtime.Duration(0); s <= 10*vtime.Second; s += vtime.BeaconInterval {
		now := vtime.Time(s)
		w.push(0, d0.HandleTimer(now))
		w.push(1, d1.HandleTimer(now))
		w.drain(t)
	}
	if !d0.AdjacencyUp(1) || !d1.AdjacencyUp(0) {
		t.Fatal("adjacency should stay up with hellos flowing")
	}
}

func TestDeadIntervalExpiry(t *testing.T) {
	cfg := Config{HelloInterval: vtime.Second}
	w, d0, d1, d2 := line3(cfg)
	converge(t, w)
	// Tick d0 only; its neighbors stay silent, so after the dead
	// interval (4 s) it must drop the adjacency and reroute.
	var outs []msg.Out
	for s := vtime.Duration(0); s <= 6*vtime.Second; s += vtime.BeaconInterval {
		outs = append(outs, d0.HandleTimer(vtime.Time(s))...)
	}
	if d0.AdjacencyUp(1) {
		t.Fatal("adjacency should be dead after 4s of silence")
	}
	if d0.Reachable(2) {
		t.Fatal("with its only link dead, node 0 must lose all routes")
	}
	if len(outs) == 0 {
		t.Fatal("expected hellos and a new LSA")
	}
	_ = d1
	_ = d2
}

func TestStateCloneIsolated(t *testing.T) {
	w, d0, _, _ := line3(Config{})
	converge(t, w)
	snap := d0.State().Clone()
	d0.HandleExternal(api.LinkChange{Peer: 1, Up: false})
	if d0.Reachable(2) {
		t.Fatal("route should be gone on live state")
	}
	d0.Restore(snap)
	if !d0.Reachable(2) || !d0.AdjacencyUp(1) {
		t.Fatal("restore should bring the route back")
	}
}

func TestExternalEventsForUnknownPeersIgnored(t *testing.T) {
	w, d0, _, _ := line3(Config{})
	_ = w
	if outs := d0.HandleExternal(api.LinkChange{Peer: 42, Up: false}); outs != nil {
		t.Fatal("unknown peer must be ignored")
	}
	if outs := d0.HandleExternal(api.LinkChange{Peer: 1, Up: true}); outs != nil {
		t.Fatal("no-op state change must be ignored")
	}
}

func TestDumpTableAndCounters(t *testing.T) {
	w, d0, _, _ := line3(Config{})
	converge(t, w)
	if d0.DumpTable() == "" {
		t.Fatal("dump should render routes")
	}
	if d0.NextHop(2) != 1 {
		t.Fatalf("SPF should route 0 → 2 via 1, got %d", d0.NextHop(2))
	}
}

// LSDBSize reports the number of stored LSAs.
func (d *Daemon) LSDBSize() int {
	n := 0
	for _, lsa := range d.st.lsdb {
		if lsa != nil {
			n++
		}
	}
	return n
}

// AdjacencyUp reports whether the adjacency to peer is currently up.
func (d *Daemon) AdjacencyUp(peer msg.NodeID) bool {
	slot := d.nbSlot(peer)
	return slot >= 0 && d.st.adjUp[slot]
}
