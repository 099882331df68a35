package scenario

// The composite journal held to its contract: a byte program drives a
// border (OSPF+BGP) and a gateway (OSPF+RIP) composite through real
// protocol traffic interleaved with mark / rewind / compact, and after
// every rewind the composite's State() must equal the State().Clone()
// taken when that mark was issued — the equality the per-daemon
// TestJournalRewindRestoresClone* tests use, applied across the parts.
// FuzzMultiJournal searches the same programs past the committed seeds.

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/bgp"
	"defined/internal/routing/ospf"
	"defined/internal/routing/rip"
	"defined/internal/vtime"
)

// Rig topology: the composite is node 0; 1 and 2 are its OSPF neighbors,
// 3 is its BGP or RIP neighbor.
var (
	rigNeighbors = []api.Neighbor{{ID: 1, Cost: 1}, {ID: 2, Cost: 3}, {ID: 3, Cost: 2}}
	rigPrefixes  = []string{"10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "as7"}
)

func ospfSide(nb api.Neighbor) bool { return nb.ID != 3 }
func peerSide(nb api.Neighbor) bool { return nb.ID == 3 }

// point is one issued mark and the clone it must rewind to.
type point struct {
	mark journal.Mark
	want api.State
}

// rig drives one composite. The peer is a bare daemon of the composite's
// second protocol standing at node 3: its outputs are the wire-true
// payloads (both are unexported types) the composite receives.
type rig struct {
	t      testing.TB
	app    *multiApp
	peer   api.Application
	border bool
	now    vtime.Time // the composite's timer clock; only moves forward
	peerT  vtime.Time
	seq    uint64  // LSA sequence numbers, never reused
	live   []point // issued marks that must still rewind exactly, oldest first
	dead   []journal.Mark
}

func newRig(t testing.TB, border bool) *rig {
	r := &rig{t: t, border: border}
	o := ospf.New(ospf.Config{})
	if border {
		r.app = newMultiApp([]part{o, bgp.New(bgp.XORP04)}, []partFilter{ospfSide, peerSide})
		r.peer = bgp.New(bgp.XORP04)
	} else {
		cfg := rip.Config{UpdateInterval: vtime.Second, Timeout: 3 * vtime.Second, SplitHorizon: true}
		r.app = newMultiApp([]part{o, rip.New(cfg)}, []partFilter{ospfSide, peerSide})
		r.peer = rip.New(cfg)
	}
	r.peer.Init(3, []api.Neighbor{{ID: 0, Cost: 2}})
	r.app.Init(0, rigNeighbors)
	r.app.JournalEnable()
	return r
}

// deliver hands the composite every output addressed to it.
func (r *rig) deliver(from msg.NodeID, outs []msg.Out) {
	for _, o := range outs {
		if o.To == 0 {
			r.app.HandleMessage(&msg.Message{From: from, To: 0, Kind: msg.KindApp, Payload: o.Payload})
		}
	}
}

func (r *rig) mark() {
	r.live = append(r.live, point{r.app.JournalMark(), r.app.State().Clone()})
}

func (r *rig) rewind(k int) {
	r.app.JournalRewind(r.live[k].mark)
	if diff := stateDiff(reflect.ValueOf(r.app.State()), reflect.ValueOf(r.live[k].want), "state"); diff != "" {
		r.t.Fatalf("rewind to mark %d (live[%d] of %d): %s", r.live[k].mark, k, len(r.live), diff)
	}
	r.live = r.live[:k+1] // younger marks died with the rewind; k itself stays valid
}

func (r *rig) compact(k int) {
	r.app.JournalCompact(r.live[k].mark)
	r.retire(k)
}

// retire moves the k oldest live marks to the dead list: a compaction
// passed them.
func (r *rig) retire(k int) {
	for _, p := range r.live[:k] {
		r.dead = append(r.dead, p.mark)
	}
	r.live = r.live[k:]
}

// mustPanic rewinds to a compacted mark: the composite must refuse the way
// journal.Log does, before touching any part.
func (r *rig) mustPanic(m journal.Mark) {
	before := r.app.State().Clone()
	func() {
		defer func() {
			if recover() == nil {
				r.t.Fatalf("rewind to compacted mark %d did not panic", m)
			}
		}()
		r.app.JournalRewind(m)
	}()
	if diff := stateDiff(reflect.ValueOf(r.app.State()), reflect.ValueOf(before), "state"); diff != "" {
		r.t.Fatalf("refused rewind to %d still moved state: %s", m, diff)
	}
}

// step runs one instruction of the byte program.
func (r *rig) step(op, arg byte) {
	switch op % 16 {
	case 0, 1, 2:
		r.mark()
	case 3, 4:
		if len(r.live) > 0 {
			r.rewind(int(arg) % len(r.live))
		}
	case 5:
		if len(r.live) > 0 {
			r.compact(int(arg) % len(r.live))
		}
	case 6, 7: // an LSA from OSPF neighbor 1 about origin 1 or 2
		origin := msg.NodeID(1 + arg&1)
		var links []ospf.Adj
		for to := msg.NodeID(0); to < 3; to++ {
			if to != origin && arg>>(1+to)&1 == 1 {
				links = append(links, ospf.Adj{To: to, Cost: 1 + uint32(arg>>5)})
			}
		}
		r.seq++
		r.deliver(1, []msg.Out{{To: 0, Payload: &ospf.LSA{Origin: origin, Seq: r.seq, Links: links}}})
	case 8, 9: // the peer learns a route and tells the composite
		prefix := rigPrefixes[arg&3]
		if r.border {
			r.deliver(3, r.peer.HandleExternal(bgp.Announce{Path: bgp.Path{
				Name: fmt.Sprintf("p%d", arg), Prefix: prefix,
				ASPathLen: int(arg >> 2 & 3), NeighborAS: int(arg >> 4 & 1), MED: int(arg >> 5 & 3), IGPDist: int(arg >> 7),
			}}))
		} else {
			r.peer.HandleExternal(rip.Originate{Prefix: prefix, Metric: int(arg >> 2 & 7)})
			r.peerT = r.peerT.Add(vtime.Second)
			r.deliver(3, r.peer.HandleTimer(r.peerT))
		}
	case 10, 11: // timers: hellos, dead intervals, RIP rounds and expiry
		r.now = r.now.Add(vtime.Duration(1+arg%24) * 250 * vtime.Millisecond)
		r.app.HandleTimer(r.now)
	case 12:
		r.app.HandleExternal(api.LinkChange{Peer: msg.NodeID(1 + arg%3), Up: arg&4 != 0})
	case 13: // a route of the composite's own
		if r.border {
			r.app.HandleExternal(bgp.Announce{Path: bgp.Path{
				Name: fmt.Sprintf("own%d", arg), Prefix: rigPrefixes[arg&3], ASPathLen: int(arg >> 2 & 3), MED: int(arg >> 4 & 3),
			}})
		} else {
			r.app.HandleExternal(rip.Originate{Prefix: rigPrefixes[arg&3], Metric: int(arg >> 2 & 7)})
		}
	case 14: // crash-restart, as rollback.RestartNode does it
		r.app.Init(0, rigNeighbors)
		r.app.JournalCompact(r.app.JournalMark())
		r.retire(len(r.live))
	case 15:
		if len(r.dead) > 0 {
			r.mustPanic(r.dead[int(arg)%len(r.dead)])
		}
	}
}

// run executes prog, then walks every surviving mark newest-first.
func (r *rig) run(prog []byte) {
	for i := 0; i+1 < len(prog); i += 2 {
		r.step(prog[i], prog[i+1])
	}
	for k := len(r.live) - 1; k >= 0; k-- {
		r.rewind(k)
	}
}

// stateDiff compares two states semantically — nil against empty and
// spare capacity, which a rewind legitimately leaves behind, are not
// differences — and returns the path of the first mismatch ("" if none).
func stateDiff(a, b reflect.Value, path string) string {
	if a.Kind() != b.Kind() {
		return fmt.Sprintf("%s: kind %s vs %s", path, a.Kind(), b.Kind())
	}
	switch a.Kind() {
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil vs non-nil", path)
			}
			return ""
		}
		if a.Kind() == reflect.Pointer && a.Pointer() == b.Pointer() {
			return ""
		}
		return stateDiff(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, it.Key())
			}
			if d := stateDiff(it.Value(), bv, fmt.Sprintf("%s[%v]", path, it.Key())); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		panic(fmt.Sprintf("stateDiff: %s has unhandled kind %s", path, a.Kind()))
	}
	return ""
}

// journalPrograms are the committed programs: the table test runs them and
// they seed the fuzzer. Instructions are (op, arg) byte pairs; see step.
var journalPrograms = map[string][]byte{
	// Two marks with nothing between them, rewound in both orders.
	"empty-interval": {0, 0, 0, 0, 6, 0x0f, 3, 1, 10, 3, 3, 0},
	// Rewind, re-mark at once, diverge, rewind to the re-issued mark.
	"rewind-remark": {0, 0, 6, 0x07, 8, 0x15, 3, 0, 0, 0, 10, 7, 13, 2, 3, 1, 3, 0},
	// Compact to the newest mark (the settled-stack-empty case), go on.
	"compact-to-head": {0, 0, 6, 0x0e, 0, 0, 10, 4, 0, 0, 5, 2, 8, 0x2a, 10, 9, 3, 0, 15, 0},
	// Crash-restart: re-Init with the journal on, then
	// JournalCompact(JournalMark()); older marks must refuse.
	"restart": {0, 0, 6, 0x0f, 8, 0x11, 10, 3, 0, 0, 14, 0, 15, 0, 15, 1, 0, 0, 7, 0x2d, 13, 5, 10, 11, 3, 0},
	// Deep stack: compaction from the middle, a rewind across several
	// marks, link flaps, timers long enough for dead intervals and RIP
	// expiry.
	"deep": {
		0, 0, 6, 0x0f, 1, 0, 8, 0x01, 2, 0, 10, 3, 0, 0, 12, 4, 1, 0, 9, 0x46, 0, 0, 7, 0x36,
		5, 2, 10, 23, 0, 0, 12, 0, 13, 9, 3, 1, 15, 0, 0, 0, 11, 40, 8, 0x93, 4, 0, 10, 1,
	},
}

func runJournalProgram(t testing.TB, prog []byte) {
	newRig(t, true).run(prog)
	newRig(t, false).run(prog)
}

func TestMultiJournalRewindRestoresClone(t *testing.T) {
	for name, prog := range journalPrograms {
		t.Run(name, func(t *testing.T) { runJournalProgram(t, prog) })
	}
}

func FuzzMultiJournal(f *testing.F) {
	for _, prog := range journalPrograms {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			t.Skip("long programs only repeat short ones")
		}
		runJournalProgram(t, prog)
	})
}

// TestPlanAppsAreJournaled walks the expanded plans of the committed
// hierarchical scenarios: every application a plan builds — bare daemon or
// composite — must checkpoint by journal mark, so no plan-built node
// reaches the substrate's clone fallback under the default engine.
func TestPlanAppsAreJournaled(t *testing.T) {
	for _, path := range []string{"../../scenarios/mixed-smoke.json", "../../scenarios/hier10k.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Expand()
		if err != nil {
			t.Fatal(err)
		}
		composites := 0
		for i, app := range p.Apps() {
			if _, ok := app.(api.Journaled); !ok {
				t.Fatalf("%s: node %d (%v) builds a %T, which is not api.Journaled", path, i, p.Nodes[i].Protocols, app)
			}
			if _, ok := app.(*multiApp); ok {
				composites++
			}
		}
		if composites == 0 {
			t.Fatalf("%s: plan builds no composite — the test no longer covers multiApp", path)
		}
	}
}

// steadyCheckpointing is the checkpoint layer of a composite in steady
// state, as the shim drives it: mark before every delivery, every 8th
// delivery roll four back and re-mark, and keep four checkpoints live by
// compacting to the oldest. Deliveries are timer ticks — every part
// journals its clock each time, hellos and RIP rounds go out on schedule.
// It returns the i-th delivery, with the journals already grown to their
// working size.
func steadyCheckpointing(tb testing.TB, border bool) func(i int) {
	r := newRig(tb, border)
	// Boot: a populated LSDB, a few routes, and enough time for the silent
	// neighbors' dead intervals and route timeouts to have fired once.
	r.run([]byte{6, 0x0f, 7, 0x2d, 8, 0x01, 8, 0x46, 13, 2, 10, 3, 10, 23, 10, 23})
	const keep = 4
	live := make([]journal.Mark, 0, 2*keep)
	tick := func(i int) {
		live = append(live, r.app.JournalMark())
		r.now = r.now.Add(250 * vtime.Millisecond)
		r.app.HandleTimer(r.now)
		if i%8 == 7 {
			live = live[:len(live)-keep+1]
			r.app.JournalRewind(live[len(live)-1])
		}
		if n := len(live) - keep; n > 0 {
			r.app.JournalCompact(live[n])
			live = live[:copy(live, live[n:])]
		}
	}
	for i := 0; i < 64; i++ {
		tick(i)
	}
	return tick
}

var compositeKinds = []struct {
	name   string
	border bool
}{{"border", true}, {"gateway", false}}

// BenchmarkCompositeCheckpoint times steadyCheckpointing's delivery;
// TestCompositeCheckpointAllocs gates what it allocates.
func BenchmarkCompositeCheckpoint(b *testing.B) {
	for _, k := range compositeKinds {
		b.Run(k.name, func(b *testing.B) {
			tick := steadyCheckpointing(b, k.border)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(i)
			}
		})
	}
}

// TestCompositeCheckpointAllocs: a journaled composite checkpoints without
// allocating, where a clone checkpoint pays one allocation per cloned
// slice and map of every part.
func TestCompositeCheckpointAllocs(t *testing.T) {
	for _, k := range compositeKinds {
		tick, i := steadyCheckpointing(t, k.border), 0
		if got := testing.AllocsPerRun(1000, func() { tick(i); i++ }); got != 0 {
			t.Errorf("%s: %v allocs per delivery in steady state, want 0", k.name, got)
		}
	}
}
