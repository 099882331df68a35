package history

import (
	"math"
	"testing"

	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/rng"
	"defined/internal/vtime"
)

// modelEntry is one entry of the sorted-slice model: its key and, for a
// message entry, the ID of the message that won the slot (nil Msg: none).
type modelEntry struct {
	key ordering.Key
	id  msg.ID
	msg bool
}

// windowModel drives a Window and a sorted slice side by side. Messages
// come from a poisoning pool: the window must hold exactly one reference
// per message entry, and a released message is never reused, so a
// reference dropped or taken twice shows in Live or Violations.
type windowModel struct {
	t      *testing.T
	f      ordering.Func
	w      *Window
	pool   *msg.Pool
	model  []modelEntry
	issued []msg.ID // every message ID ever inserted, duplicates included
}

// keyFor draws a message annotation from a small domain, so equal keys —
// duplicates — are common.
func keyFor(a, b byte) (msg.Annotation, msg.NodeID, uint64) {
	ann := msg.Annotation{
		Group:  uint64(a % 3),
		Delay:  vtime.Duration((a>>2)%4) * vtime.Millisecond,
		Origin: msg.NodeID(b % 3),
		Seq:    uint64((b >> 2) % 3),
	}
	return ann, msg.NodeID((b >> 4) % 2), uint64(a>>4) % 2
}

// find is the model's linear search: the first position whose key sorts
// at or after k, and whether it is k.
func (o *windowModel) find(k ordering.Key) (int, bool) {
	for i := range o.model {
		if c := o.f.Compare(o.model[i].key, k); c >= 0 {
			return i, c == 0
		}
	}
	return len(o.model), false
}

// insert puts e into both sides and checks the window's verdict.
func (o *windowModel) insert(e Entry) {
	want, dup := o.find(e.Key)
	pos, gotDup := o.w.Insert(e)
	if pos != want || gotDup != dup {
		o.t.Fatalf("Insert(%v) = (%d, dup %v), model (%d, dup %v)", e.Key, pos, gotDup, want, dup)
	}
	if e.Msg != nil {
		o.issued = append(o.issued, e.Msg.ID)
		// The sender's reference: the window took its own unless the
		// arrival was a duplicate, which it must not keep.
		e.Msg.Release()
	}
	if dup {
		return
	}
	me := modelEntry{key: e.Key, msg: e.Msg != nil}
	if e.Msg != nil {
		me.id = e.Msg.ID
	}
	o.model = append(o.model, modelEntry{})
	copy(o.model[want+1:], o.model[want:])
	o.model[want] = me
}

// agree checks every read-only view of the window against the model.
func (o *windowModel) agree() {
	if o.w.Len() != len(o.model) {
		o.t.Fatalf("Len = %d, model %d", o.w.Len(), len(o.model))
	}
	held := 0
	for i, me := range o.model {
		e := o.w.At(i)
		// The cell keeps a rank, not the key: the key it derives — from
		// the message, or from the rank and an external's Seq — must be
		// the one inserted.
		if e.Key() != me.key || e.Rank != o.f.Rank(me.key) || (e.Msg != nil) != me.msg || (me.msg && e.Msg.ID != me.id) {
			o.t.Fatalf("At(%d) = %v (rank %v), model %+v", i, e, e.Rank, me)
		}
		if me.msg {
			held++
			if r := e.Msg.Refs(); r != 1 {
				o.t.Fatalf("At(%d) holds %d references, want the window's one", i, r)
			}
		}
	}
	if live := o.pool.Live(); live != held {
		o.t.Fatalf("pool has %d live messages, window holds %d", live, held)
	}
	if v := o.pool.Violations(); v != 0 {
		o.t.Fatalf("%d use-after-release violations", v)
	}
	if err := o.w.CheckInvariant(); err != nil {
		o.t.Fatal(err)
	}
}

// localNodes are the origins of timer and external entries.
var localNodes = [3]msg.NodeID{0, 1, math.MaxInt32}

// runWindowProgram interprets prog as window operations: the first byte
// picks the ordering (OO, or RO seeded by it), then three bytes each,
// opcode and two operands.
func runWindowProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	f := ordering.Optimized()
	if prog[0]%2 == 1 {
		f = ordering.Random(uint64(prog[0]))
	}
	pool := &msg.Pool{}
	pool.SetPoison(true)
	o := &windowModel{t: t, f: f, w: New(f), pool: pool}
	next := uint64(0)
	for prog = prog[1:]; len(prog) >= 3; prog = prog[3:] {
		op, a, b := prog[0], prog[1], prog[2]
		switch op % 8 {
		case 0, 1, 2:
			ann, from, linkSeq := keyFor(a, b)
			m := pool.Get()
			m.ID, m.From, m.Ann, m.LinkSeq, m.Kind = msg.ID{Sender: ann.Origin, Seq: next}, from, ann, linkSeq, msg.KindApp
			next++
			o.insert(Entry{Key: ordering.KeyOf(m), Msg: m, ArrivedAt: vtime.Time(next)})
		case 3:
			// Timer batches and externals carry no message: their keys
			// come back from the rank, so their origins reach the largest
			// node id.
			node := localNodes[b%3]
			if b&0x80 != 0 {
				k := ordering.ExternalKey(uint64(a%3), node, uint64(a>>4)%2)
				o.insert(Entry{Key: k, Ext: &External{Seq: k.Seq}})
				break
			}
			o.insert(Entry{Key: ordering.TimerKey(uint64(a%3), node)})
		case 4:
			if len(o.model) == 0 {
				continue
			}
			i := int(a) % len(o.model)
			if got := o.w.RemoveAt(i); got != o.model[i].key {
				t.Fatalf("RemoveAt(%d) returned %v, model %v", i, got, o.model[i].key)
			}
			o.model = append(o.model[:i], o.model[i+1:]...)
		case 5:
			n := int(a) % (len(o.model) + 1)
			o.w.Retire(n)
			o.model = o.model[n:]
		case 6:
			if len(o.issued) == 0 {
				continue
			}
			id := o.issued[int(a)%len(o.issued)]
			want := -1
			for i, me := range o.model {
				if me.msg && me.id == id {
					want = i
				}
			}
			if got := o.w.FindMsg(id); got != want {
				t.Fatalf("FindMsg(%v) = %d, model %d", id, got, want)
			}
		case 7:
			ann, from, linkSeq := keyFor(a, b)
			k := ordering.KeyOfSend(from, ann, linkSeq)
			want, ok := o.find(k)
			if !ok {
				want = -1
			}
			if got := o.w.FindKey(k); got != want {
				t.Fatalf("FindKey(%v) = %d, model %d", k, got, want)
			}
		}
		o.agree()
	}
	o.w.Retire(o.w.Len())
	o.model = nil
	o.agree()
}

// FuzzWindowOps holds the history window to a sorted-slice model over
// arbitrary programs of Insert (message, timer and external entries, with
// keys from a domain small enough that duplicates are common),
// RemoveAt, Retire, FindMsg and FindKey, under OO and RO: every insert
// lands where a linear scan puts it and reports a duplicate exactly when
// the key is present, the contents match the model after every step —
// each cell's rank and the key it derives included — and the window holds
// one reference per message entry, no more, none released early. The
// seeds below and testdata/fuzz run under plain `go test`.
func FuzzWindowOps(f *testing.F) {
	// In-order appends, one out-of-order insert, a duplicate of it, a
	// lookup of both copies, then retire and remove around them.
	f.Add([]byte{0,
		0, 0x00, 0x00, 0, 0x04, 0x00, 0, 0x08, 0x00, 0, 0x01, 0x00,
		0, 0x05, 0x04, 0, 0x05, 0x04, 6, 4, 0, 6, 5, 0,
		7, 0x05, 0x04, 5, 1, 0, 4, 1, 0, 3, 1, 0x81, 3, 1, 1,
	})
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		prog := make([]byte, 1+3*300)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		f.Add(prog)
	}
	f.Fuzz(runWindowProgram)
}
