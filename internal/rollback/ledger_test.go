package rollback

import (
	"testing"

	"defined/internal/annotate"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/record"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// ledgerDelivery is one delivery of FuzzLedgerRetire's model window: its
// serial, its outputs' payloads and the sender counters before it.
type ledgerDelivery struct {
	serial   uint64
	payloads []int
	before   annotate.Counters
}

// FuzzLedgerRetire drives a ledger alone through the calls the shim makes —
// a delivery's sends, sends firing, an undo whose replay re-adopts, changes
// or annihilates outputs before the retract, settlement retiring a window
// prefix, in-flight losses and a crash reset — against a model window of
// the deliveries not yet retired. After every step sent is sorted by cause;
// each unretired delivery has one live record per output, and every other
// live record has a retired cause; every record outside sent is back in the
// store. A retirement frees no unfired record and leaves no fired record of
// a retired cause at the front of sent, and a retract sends one anti per
// wired, undropped record it unsends. At the end, with the wire drained,
// the pool's live messages are the ones the live records hold, and retiring
// the last serial frees them all.
func FuzzLedgerRetire(f *testing.F) {
	f.Add([]byte{0, 5, 1, 3, 0, 9, 2, 0, 1, 20, 3, 1, 1, 30, 3, 1})                  // send, replay, retire, retire
	f.Add([]byte{0, 6, 0, 10, 1, 2, 2, 65, 3, 1, 1, 40, 3, 1, 4, 0, 3, 2})           // a changed output is chased; retire behind an unfired send
	f.Add([]byte{0, 2, 1, 15, 4, 0, 0, 7, 2, 128, 1, 9, 5, 0, 0, 3, 3, 1})           // a loss, an annihilation, a crash
	f.Add([]byte{0, 1, 0, 5, 0, 9, 1, 1, 2, 193, 3, 2, 1, 20, 2, 0, 3, 9, 1, 50, 3}) // a new arrival ahead of the replay
	f.Fuzz(func(t *testing.T, prog []byte) {
		ms := vtime.Millisecond
		g := topology.Line(2, 10*ms)
		sim := netsim.New(g, netsim.Config{Seed: 1})
		sim.Attach(1, func(*msg.Message) {})
		st := &Stats{}
		sender := annotate.NewSender(0, g, 64, vtime.BaseProcessing, 0)
		sender.Pool = sim.LaneFor(0).Pool()
		l := ledger{id: 0, lane: sim.LaneFor(0), recs: new(recStore), sender: sender, stats: st, dropLog: map[msg.ID]record.LossEvent{}}

		var win []ledgerDelivery // unretired deliveries, in serial order
		var serial, retired uint64
		deliver := func(d ledgerDelivery, delay vtime.Duration, replayed bool) ledgerDelivery {
			serial++
			d.serial, d.before = serial, annotate.Counters{}
			sender.CopyCounters(&d.before)
			outs := make([]msg.Out, len(d.payloads))
			for i, p := range d.payloads {
				outs[i] = msg.Out{To: 1, Payload: p}
			}
			l.send(outs, &annotate.Cause{Fresh: true}, delay, serial, replayed)
			return d
		}
		unfired := func() int {
			n := 0
			for i := range l.sent.Len() {
				if !(*l.sent.At(i)).ev.IsZero() {
					n++
				}
			}
			return n
		}

		for op := 0; len(prog) >= 2; op++ {
			kind, a := prog[0]%6, int(prog[1])
			prog = prog[2:]
			delay := vtime.BaseProcessing + vtime.Duration(a%4)*ms
			switch kind {
			case 0: // a delivery sends up to two outputs
				d := ledgerDelivery{}
				for i := range a % 3 {
					d.payloads = append(d.payloads, a/3%4*10+i)
				}
				win = append(win, deliver(d, delay, false))
			case 1: // the wire moves on a ms; due sends fire
				sim.Run(sim.Now().Add(vtime.Duration(a%16) * ms))
			case 2: // an undo from a window position, replayed, then the retract
				if len(win) == 0 {
					break
				}
				pos, variant := (a&63)%len(win), a>>6
				sender.RestoreCounters(win[pos].before)
				l.undo(win[pos].serial)
				replay := append([]ledgerDelivery(nil), win[pos:]...)
				win = win[:pos]
				switch variant {
				case 1: // the first replayed delivery's outputs change
					changed := make([]int, len(replay[0].payloads)+1)
					for i := range changed {
						changed[i] = 100 + i
					}
					replay[0].payloads = changed
				case 2: // an anti annihilated the first undone delivery
					replay = replay[1:]
				case 3: // an earlier-keyed arrival is delivered ahead of them
					win = append(win, deliver(ledgerDelivery{payloads: []int{200 + a}}, delay, false))
				}
				for _, d := range replay {
					win = append(win, deliver(d, delay+ms, true))
				}
				antis, unsent := 0, make([]msg.ID, 0, len(l.replayPool))
				for _, rec := range l.replayPool {
					if rec.ev.IsZero() && !rec.dropped {
						antis++
					}
					unsent = append(unsent, rec.m.ID)
				}
				was := st.AntiMessages
				l.retract()
				if got := int(st.AntiMessages - was); got != antis {
					t.Fatalf("op %d: retract sent %d antis for %d wired, undropped records", op, got, antis)
				}
				for _, id := range unsent {
					if _, ok := l.dropLog[id]; ok {
						t.Fatalf("op %d: unsent message %v keeps its loss event", op, id)
					}
				}
			case 3: // settlement retires the oldest k deliveries
				k := a % (len(win) + 1)
				if k == 0 {
					break
				}
				last, before := win[k-1].serial, unfired()
				l.retire(last)
				win, retired = win[k:], last
				if got := unfired(); got != before {
					t.Fatalf("op %d: retire(%d) freed %d unfired records", op, last, before-got)
				}
				if l.sent.Len() > 0 {
					if rec := *l.sent.At(0); rec.causeSerial <= last && rec.ev.IsZero() {
						t.Fatalf("op %d: retire(%d) left a fired record of cause %d at the front", op, last, rec.causeSerial)
					}
				}
			case 4: // a wired send is lost in flight
				var wired []*sentRec
				for i := range l.sent.Len() {
					if rec := *l.sent.At(i); rec.ev.IsZero() && !rec.dropped {
						wired = append(wired, rec)
					}
				}
				if len(wired) > 0 {
					l.dropped(wired[a%len(wired)].m)
				}
			case 5: // a crash loses the window and every record
				l.reset()
				win = nil
			}

			if len(l.replayPool) != 0 {
				t.Fatalf("op %d: %d records left in the replay pool", op, len(l.replayPool))
			}
			perCause := map[uint64]int{}
			prev := uint64(0)
			for i := range l.sent.Len() {
				rec := *l.sent.At(i)
				if rec.causeSerial < prev {
					t.Fatalf("op %d: record of cause %d after one of cause %d", op, rec.causeSerial, prev)
				}
				prev = rec.causeSerial
				perCause[rec.causeSerial]++
			}
			for _, d := range win {
				if perCause[d.serial] != len(d.payloads) {
					t.Fatalf("op %d: delivery %d has %d live records for %d outputs", op, d.serial, perCause[d.serial], len(d.payloads))
				}
				delete(perCause, d.serial)
			}
			for cause := range perCause {
				if cause > retired {
					t.Fatalf("op %d: a record of cause %d outlived its delivery (last retired %d)", op, cause, retired)
				}
			}
			if live := int(l.recs.cut) - freeRecs(l.recs); live != l.sent.Len() {
				t.Fatalf("op %d: %d records out of the store, %d live", op, live, l.sent.Len())
			}
		}

		sim.Run(sim.Now().Add(vtime.Second))
		held := map[*msg.Message]bool{}
		l.held(func(m *msg.Message) { held[m] = true })
		if got := sim.PoolLive(); got != len(held) || len(held) != l.sent.Len() {
			t.Fatalf("wire drained: %d pooled messages live, %d held by %d records", got, len(held), l.sent.Len())
		}
		l.retire(serial)
		if l.sent.Len() != 0 || sim.PoolLive() != 0 {
			t.Fatalf("retiring every serial left %d records and %d pooled messages", l.sent.Len(), sim.PoolLive())
		}
	})
}
