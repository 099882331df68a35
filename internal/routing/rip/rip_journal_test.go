package rip

// Journal-specific tests: rewinding must restore exactly the state a
// Clone captured at the mark — including map deletions (route expiry) and
// the crash flag — and compaction must keep younger marks rewindable.

import (
	"reflect"
	"testing"

	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

func annMsg(from msg.NodeID, routes ...advert) *msg.Message {
	return &msg.Message{From: from, To: 0, Kind: msg.KindApp,
		Payload: announcement{From: from, Routes: routes}}
}

func TestJournalRewindRestoresClone(t *testing.T) {
	d := New(Config{UpdateInterval: vtime.Second, Timeout: 3 * vtime.Second})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.JournalEnable()

	d.HandleExternal(Originate{Prefix: "10.0.0.0/8", Metric: 0})
	d.HandleTimer(vtime.Time(vtime.Second))
	d.HandleMessage(annMsg(1, advert{Prefix: "192.168.0.0/16", Metric: 1}))

	mark := d.JournalMark()
	want := d.st.Clone().(*state)

	// Refresh (same next hop), switch (better metric via other neighbor),
	// expiry (timeout passes), and a crash — every undo kind fires.
	d.HandleMessage(annMsg(1, advert{Prefix: "192.168.0.0/16", Metric: 1}))
	d.HandleMessage(annMsg(2, advert{Prefix: "192.168.0.0/16", Metric: 0}))
	d.HandleMessage(annMsg(2, advert{Prefix: "172.16.0.0/12", Metric: 4}))
	d.HandleTimer(vtime.Time(6 * vtime.Second)) // expire everything refreshable
	d.HandleExternal(Crash{})
	if !d.Crashed() {
		t.Fatal("crash must stick before rewind")
	}

	d.JournalRewind(mark)
	if !reflect.DeepEqual(d.st, want) {
		t.Fatalf("rewound state differs:\n%+v\nwant\n%+v", d.st, want)
	}
}

func TestJournalCompactThenRewind(t *testing.T) {
	d := New(Config{})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}})
	d.JournalEnable()

	d.HandleExternal(Originate{Prefix: "10.0.0.0/8", Metric: 0})
	settled := d.JournalMark()
	d.HandleMessage(annMsg(1, advert{Prefix: "172.16.0.0/12", Metric: 2}))
	live := d.JournalMark()
	want := d.st.Clone().(*state)
	d.HandleMessage(annMsg(1, advert{Prefix: "172.16.0.0/12", Metric: 1}))

	d.JournalCompact(settled)
	d.JournalRewind(live)
	if !reflect.DeepEqual(d.st, want) {
		t.Fatalf("rewound state differs after compaction:\n%+v\nwant\n%+v", d.st, want)
	}
}

// CloneInto equals Clone, drops the recycled state's stale routes, returns
// the recycled state itself, and shares nothing with the source.
func TestCloneIntoMatchesClone(t *testing.T) {
	d := New(Config{UpdateInterval: vtime.Second, Timeout: 3 * vtime.Second})
	d.Init(0, []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 1}})
	d.HandleExternal(Originate{Prefix: "10.0.0.0/8", Metric: 0})
	early := d.st.Clone().(*state)
	d.HandleMessage(annMsg(1, advert{Prefix: "192.168.0.0/16", Metric: 1}))
	d.HandleMessage(annMsg(2, advert{Prefix: "172.16.0.0/12", Metric: 4}))
	d.HandleExternal(Originate{Prefix: "10.1.0.0/16", Metric: 0})
	late := d.st.Clone().(*state)

	wantEarly := early.Clone()
	if got := early.CloneInto(late); got != late {
		t.Fatal("CloneInto did not copy into the state it was given")
	}
	if !reflect.DeepEqual(late, wantEarly) {
		t.Fatalf("copy into a larger state:\n%+v\nwant\n%+v", late, wantEarly)
	}
	want := d.st.Clone()
	got := d.st.CloneInto(early)
	d.HandleMessage(annMsg(2, advert{Prefix: "192.168.0.0/16", Metric: 0}))
	d.HandleTimer(vtime.Time(6 * vtime.Second))
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(late, wantEarly) {
		t.Fatalf("copy changed with its source:\n%+v\nwant\n%+v", got, want)
	}
}
