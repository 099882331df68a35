package bgp

import (
	"testing"
	"testing/quick"

	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// SelectXORP04 is the reference the daemon's XORP04 path is held to: paths
// are considered in arrival order and each is compared only against the
// current best.
func SelectXORP04(arrivalOrder []Path) (Path, bool) {
	if len(arrivalOrder) == 0 {
		return Path{}, false
	}
	best := arrivalOrder[0]
	for _, p := range arrivalOrder[1:] {
		if pairwiseBetter(p, best) {
			best = p
		}
	}
	return best, true
}

func TestFigure4PreferenceCycle(t *testing.T) {
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	if !pairwiseBetter(p2, p1) {
		t.Error("p2 must beat p1 (same AS, lower MED)")
	}
	if !pairwiseBetter(p3, p2) {
		t.Error("p3 must beat p2 (different AS, lower IGP)")
	}
	if !pairwiseBetter(p1, p3) {
		t.Error("p1 must beat p3 (lower IGP)")
	}
}

func TestSelectCorrectPicksP3(t *testing.T) {
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	for _, order := range [][]Path{
		{p1, p2, p3}, {p1, p3, p2}, {p2, p1, p3},
		{p2, p3, p1}, {p3, p1, p2}, {p3, p2, p1},
	} {
		best, ok := SelectCorrect(order)
		if !ok || best.Name != "p3" {
			t.Fatalf("order %v: correct selection = %v, want p3", names(order), best.Name)
		}
	}
}

func names(ps []Path) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}

func TestSelectXORP04OrderDependent(t *testing.T) {
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	// The paper's two orderings: p1,p2,p3 selects p3 (correct);
	// p1,p3,p2 selects p2 (wrong).
	best, _ := SelectXORP04([]Path{p1, p2, p3})
	if best.Name != "p3" {
		t.Fatalf("order p1,p2,p3: got %s, want p3", best.Name)
	}
	best, _ = SelectXORP04([]Path{p1, p3, p2})
	if best.Name != "p2" {
		t.Fatalf("order p1,p3,p2: got %s, want p2 (the bug)", best.Name)
	}
}

func TestSelectEmpty(t *testing.T) {
	if _, ok := SelectCorrect(nil); ok {
		t.Error("empty correct selection should fail")
	}
	if _, ok := SelectXORP04(nil); ok {
		t.Error("empty buggy selection should fail")
	}
}

func TestSelectCorrectRule1(t *testing.T) {
	short := Path{Name: "short", ASPathLen: 2, NeighborAS: 1, MED: 100, IGPDist: 100}
	long := Path{Name: "long", ASPathLen: 5, NeighborAS: 2, MED: 0, IGPDist: 0}
	best, _ := SelectCorrect([]Path{long, short})
	if best.Name != "short" {
		t.Fatal("shortest AS path must dominate")
	}
}

func TestModeString(t *testing.T) {
	if XORP04.String() != "xorp-0.4" || Fixed.String() != "fixed" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string wrong")
	}
}

func mkDaemon(mode Mode) *Daemon {
	d := New(mode)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	return d
}

func TestDaemonLearnsAndPropagates(t *testing.T) {
	d := mkDaemon(Fixed)
	p1, _, _ := Figure4Paths("10.0.0.0/8")
	outs := d.HandleExternal(Announce{Path: p1})
	if len(outs) != 2 {
		t.Fatalf("expected updates to 2 peers, got %d", len(outs))
	}
	if best, ok := d.Best("10.0.0.0/8"); !ok || best.Name != "p1" {
		t.Fatalf("best = %v, %v", best, ok)
	}
	// The same path arriving again via iBGP is deduplicated.
	outs = d.HandleMessage(&msg.Message{From: 1, Payload: update{Path: p1}})
	if outs != nil {
		t.Fatal("duplicate path must not trigger updates")
	}
	if d.PathCount("10.0.0.0/8") != 1 {
		t.Fatal("duplicate stored")
	}
}

func TestDaemonBugEndToEnd(t *testing.T) {
	prefix := "10.0.0.0/8"
	p1, p2, p3 := Figure4Paths(prefix)

	buggy := mkDaemon(XORP04)
	for _, p := range []Path{p1, p3, p2} {
		buggy.HandleMessage(&msg.Message{From: 1, Payload: update{Path: p}})
	}
	if best, _ := buggy.Best(prefix); best.Name != "p2" {
		t.Fatalf("buggy daemon with order p1,p3,p2 selected %s, want p2", best.Name)
	}

	fixed := mkDaemon(Fixed)
	for _, p := range []Path{p1, p3, p2} {
		fixed.HandleMessage(&msg.Message{From: 1, Payload: update{Path: p}})
	}
	if best, _ := fixed.Best(prefix); best.Name != "p3" {
		t.Fatalf("fixed daemon selected %s, want p3", best.Name)
	}
	if got := fixed.ArrivalOrder(prefix); len(got) != 3 || got[1] != "p3" {
		t.Fatalf("arrival order = %v", got)
	}
}

func TestDaemonSuppressesUnchangedBest(t *testing.T) {
	d := mkDaemon(Fixed)
	p1, _, _ := Figure4Paths("10.0.0.0/8")
	d.HandleExternal(Announce{Path: p1})
	// A path with a longer AS path loses rule 1 outright; the best is
	// unchanged and nothing should be advertised.
	loser := Path{Name: "pl", Prefix: "10.0.0.0/8", ASPathLen: 9, NeighborAS: 300, MED: 0, IGPDist: 0}
	outs := d.HandleMessage(&msg.Message{From: 1, Payload: update{Path: loser}})
	if outs != nil {
		t.Fatalf("unchanged best must not propagate, got %d updates", len(outs))
	}
	if d.PathCount("10.0.0.0/8") != 2 {
		t.Fatal("losing path must still be stored in the RIB")
	}
}

func TestStateCloneIsolated(t *testing.T) {
	d := mkDaemon(Fixed)
	p1, p2, _ := Figure4Paths("10.0.0.0/8")
	d.HandleExternal(Announce{Path: p1})
	snap := d.State().Clone()
	d.HandleExternal(Announce{Path: p2})
	if d.PathCount("10.0.0.0/8") != 2 {
		t.Fatal("live state should have 2 paths")
	}
	d.Restore(snap)
	if d.PathCount("10.0.0.0/8") != 1 {
		t.Fatal("restore should rewind to 1 path")
	}
	if best, _ := d.Best("10.0.0.0/8"); best.Name != "p1" {
		t.Fatal("restore should rewind best path")
	}
}

func TestTimerAndUnknownEventsAreNoOps(t *testing.T) {
	d := mkDaemon(Fixed)
	if outs := d.HandleTimer(vtime.Time(vtime.Second)); outs != nil {
		t.Fatal("timer should be a no-op")
	}
	if outs := d.HandleExternal(api.LinkChange{Peer: 1, Up: false}); outs != nil {
		t.Fatal("unknown external should be a no-op")
	}
	if outs := d.HandleMessage(&msg.Message{From: 1, Payload: "garbage"}); outs != nil {
		t.Fatal("unknown payload should be a no-op")
	}
	if _, ok := d.Best("no-such-prefix"); ok {
		t.Fatal("missing prefix should report !ok")
	}
}

// Property: SelectCorrect is arrival-order independent — the whole point
// of the fix.
func TestSelectCorrectOrderInvariantProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw)%6 + 1
		paths := make([]Path, n)
		for i := range paths {
			paths[i] = Path{
				Name:       string(rune('a' + i)),
				Prefix:     "p",
				ASPathLen:  r.Intn(3) + 1,
				NeighborAS: r.Intn(3),
				MED:        r.Intn(4),
				IGPDist:    r.Intn(4),
			}
		}
		ref, _ := SelectCorrect(paths)
		perm := r.Perm(n)
		shuffled := make([]Path, n)
		for i, p := range perm {
			shuffled[i] = paths[p]
		}
		got, _ := SelectCorrect(shuffled)
		return got == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the XORP 0.4 selection always returns one of its inputs and
// never beats the correct choice under the pairwise relation's own rules
// trivially — i.e., it is at least locally maximal against the last
// compared path.
func TestSelectXORP04ReturnsInputProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw)%6 + 1
		paths := make([]Path, n)
		for i := range paths {
			paths[i] = Path{
				Name:       string(rune('a' + i)),
				Prefix:     "p",
				ASPathLen:  r.Intn(3) + 1,
				NeighborAS: r.Intn(3),
				MED:        r.Intn(4),
				IGPDist:    r.Intn(4),
			}
		}
		got, ok := SelectXORP04(paths)
		if !ok {
			return false
		}
		found := false
		for _, p := range paths {
			if p == got {
				found = true
			}
		}
		// Local maximality: no later path in arrival order would have
		// displaced the final best.
		for i := len(paths) - 1; i >= 0 && paths[i] != got; i-- {
			if pairwiseBetter(paths[i], got) {
				return false
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
