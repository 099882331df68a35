package bgp

// Journal-specific tests: rewinding must restore the rib-in (slice-valued
// map entries), the best-path map and the decision counter exactly as a
// Clone captured them at the mark.

import (
	"reflect"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
)

func TestJournalRewindRestoresClone(t *testing.T) {
	d := New(XORP04)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()

	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	d.HandleExternal(Announce{Path: p1})

	mark := d.JournalMark()
	want := d.st.Clone().(*state)

	// New best via pairwise comparison, a second prefix, and an iBGP
	// update — exercising append-to-existing, fresh-key insert and
	// best-path replacement.
	d.HandleExternal(Announce{Path: p2})
	d.HandleExternal(Announce{Path: p3})
	q1, _, _ := Figure4Paths("192.168.0.0/16")
	d.HandleMessage(&msg.Message{From: 1, To: 0, Kind: msg.KindApp, Payload: update{Path: q1}})
	if d.PathCount("10.0.0.0/8") != 3 || d.PathCount("192.168.0.0/16") != 1 {
		t.Fatal("setup did not ingest the paths")
	}

	d.JournalRewind(mark)
	if !reflect.DeepEqual(d.st, want) {
		t.Fatalf("rewound state differs:\n%+v\nwant\n%+v", d.st, want)
	}

	// Replaying the same inputs after the rewind converges to the same
	// decision as an un-rewound run (the XORP 0.4 order sensitivity makes
	// this meaningful: the arrival order must have been restored too).
	d.HandleExternal(Announce{Path: p2})
	d.HandleExternal(Announce{Path: p3})
	best, ok := d.Best("10.0.0.0/8")
	if !ok || best.Name != SelectXORP04MustName(t, p1, p2, p3) {
		t.Fatalf("replayed best = %v", best.Name)
	}
}

// SelectXORP04MustName returns the name the buggy engine selects for the
// given arrival order.
func SelectXORP04MustName(t *testing.T, order ...Path) string {
	t.Helper()
	p, ok := SelectXORP04(order)
	if !ok {
		t.Fatal("no selection")
	}
	return p.Name
}

// CloneInto equals Clone, drops the recycled state's stale prefixes, reuses
// its path slices, and shares nothing with the source.
func TestCloneIntoMatchesClone(t *testing.T) {
	d := New(XORP04)
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	p1, p2, p3 := Figure4Paths("10.0.0.0/8")
	d.HandleExternal(Announce{Path: p1})
	early := d.st.Clone().(*state)
	d.HandleExternal(Announce{Path: p2})
	q1, _, _ := Figure4Paths("192.168.0.0/16")
	d.HandleMessage(&msg.Message{From: 1, To: 0, Kind: msg.KindApp, Payload: update{Path: q1}})
	late := d.st.Clone().(*state)
	paths := late.ribIn["10.0.0.0/8"]

	wantEarly := early.Clone()
	if got := early.CloneInto(late); got != late {
		t.Fatal("CloneInto did not copy into the state it was given")
	}
	if !reflect.DeepEqual(late, wantEarly) {
		t.Fatalf("copy into a larger state:\n%+v\nwant\n%+v", late, wantEarly)
	}
	if &late.ribIn["10.0.0.0/8"][0] != &paths[0] {
		t.Fatal("the prefix's path slice was not reused")
	}
	want := d.st.Clone()
	got := d.st.CloneInto(early)
	d.HandleExternal(Announce{Path: p3})
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(late, wantEarly) {
		t.Fatalf("copy changed with its source:\n%+v\nwant\n%+v", got, want)
	}
}
