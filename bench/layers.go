package main

// Isolated drivers: each replays the recorded op stream into one package
// with nothing else running, so a layer has a cost of its own that can be
// multiplied by the run's op counts and set against the engine's self
// time (the ledger). They are approximations by construction — a real run
// interleaves the layers and shares the caches between them — which is why
// the unexplained remainder is reported as ledger.residual_frac rather
// than hidden.

import (
	"fmt"
	"time"

	"defined"
	"defined/internal/eventq"
	"defined/internal/history"
	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/netsim"
	"defined/internal/ordering"
	"defined/internal/routing/api"
	"defined/internal/shard"
	"defined/internal/vtime"
)

func (o op) isHandler() bool {
	return o.kind == opMessage || o.kind == opTimer || o.kind == opExternal
}

// replayDaemons feeds the recorded stream — handler calls and every
// checkpoint, rewind and restore between them — into fresh daemons built
// from the plan, with no engine underneath, and returns the mean handler
// span, timed as the decorator times it. Journal marks double as a
// divergence check: a fresh daemon fed the same calls must sit at the same
// journal position.
func replayDaemons(p *defined.Plan, l *opLog) (nsPerCall float64, err error) {
	apps := p.Apps()
	// Snapshots are only materialized when a later op reads them.
	lastUse := map[uint64]int{}
	for i, o := range l.ops {
		switch {
		case o.kind == opClone && o.arg2 != 0:
			lastUse[o.arg2] = i
		case o.kind == opRestore:
			lastUse[o.arg] = i
		}
	}
	snaps := map[uint64]api.State{}
	var busy time.Duration
	calls := 0
	for i, o := range l.ops {
		app := apps[o.node]
		switch o.kind {
		case opInit:
			a := l.inits[o.arg]
			app.Init(a.self, a.neighbors)
		case opMessage:
			s := clock()
			app.HandleMessage(&l.messages[o.arg])
			busy += clock() - s - spanCost
			calls++
		case opTimer:
			s := clock()
			app.HandleTimer(vtime.Time(o.arg))
			busy += clock() - s - spanCost
			calls++
		case opExternal:
			s := clock()
			app.HandleExternal(l.externals[o.arg])
			busy += clock() - s - spanCost
			calls++
		case opEnable:
			app.(api.Journaled).JournalEnable()
		case opMark:
			if got := app.(api.Journaled).JournalMark(); got != journal.Mark(o.arg) {
				return 0, fmt.Errorf("isolated daemon replay diverged at op %d: node %d journal at %d, recorded %d", i, o.node, got, o.arg)
			}
		case opRewind:
			app.(api.Journaled).JournalRewind(journal.Mark(o.arg))
		case opCompact:
			app.(api.Journaled).JournalCompact(journal.Mark(o.arg))
		case opClone:
			if _, read := lastUse[o.arg]; !read {
				continue
			}
			if o.arg2 == 0 {
				snaps[o.arg] = app.State().Clone()
			} else {
				snaps[o.arg] = snaps[o.arg2].Clone()
				if lastUse[o.arg2] == i {
					delete(snaps, o.arg2)
				}
			}
		case opRestore:
			app.Restore(snaps[o.arg])
			delete(snaps, o.arg)
		}
	}
	if calls == 0 {
		return 0, nil
	}
	return float64(busy) / float64(calls), nil
}

// arrivalTimes is the virtual time each recorded handler call was due: a
// message's d_i prediction, a timer's own time, an external's predecessor.
func arrivalTimes(l *opLog) []vtime.Time {
	var out []vtime.Time
	var last vtime.Time
	for _, o := range l.ops {
		switch o.kind {
		case opMessage:
			a := l.messages[o.arg].Ann
			last = vtime.GroupStart(a.Group, vtime.BeaconInterval).Add(a.Delay)
		case opTimer:
			last = vtime.Time(o.arg)
		case opExternal:
		default:
			continue
		}
		out = append(out, last)
	}
	return out
}

// driveEventq pushes and pops the recorded arrival times through a queue
// held at the given depth, then reschedules live handles as often.
func driveEventq(times []vtime.Time, depth int) (nsPerPushPop, nsPerReschedule float64) {
	if len(times) == 0 || depth == 0 {
		return 0, 0
	}
	m := &msg.Message{}
	fill := func(q *eventq.Queue) []eventq.Handle {
		hs := make([]eventq.Handle, depth)
		for i := range hs {
			hs[i] = q.PushDeliver(times[i%len(times)], m)
		}
		return hs
	}
	var q eventq.Queue
	fill(&q)
	t0 := time.Now()
	for _, at := range times {
		q.PushDeliver(at, m)
		q.Pop()
	}
	nsPerPushPop = float64(time.Since(t0)) / float64(len(times))

	var q2 eventq.Queue
	hs := fill(&q2)
	t0 = time.Now()
	for i, at := range times {
		q2.Reschedule(hs[i%depth], at)
	}
	nsPerReschedule = float64(time.Since(t0)) / float64(len(times))
	return nsPerPushPop, nsPerReschedule
}

// drivePool is Get + Release on a warm pool.
func drivePool() float64 {
	const n = 1 << 20
	var p msg.Pool
	p.Get().Release()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Get().Release()
	}
	return float64(time.Since(t0)) / n
}

// driveNetsim sends every recorded output over a bare simulator with
// no-op handlers, stepping one delivery per handler call the way the run
// interleaves them. Each send draws its message from the simulator's pool;
// poolNs is taken off so the pool is not counted twice in the ledger.
func driveNetsim(g *defined.Topology, l *opLog, poolNs float64) (nsPerSend, allocsPerSend float64) {
	sim := netsim.New(g, netsim.Config{Seed: engineSeed})
	for i := 0; i < g.N; i++ {
		sim.Attach(defined.NodeID(i), func(*msg.Message) {})
	}
	pool := sim.Pool()
	sends := 0
	before := readCounters()
	t0 := time.Now()
	for _, o := range l.ops {
		if !o.isHandler() {
			continue
		}
		for _, to := range l.dests[o.destOff : o.destOff+o.dests] {
			m := pool.Get()
			m.ID = msg.ID{Sender: o.node, Seq: uint64(sends)}
			m.From, m.To, m.Kind = o.node, to, msg.KindApp
			sim.Send(m)
			m.Release()
			sends++
		}
		sim.Step()
	}
	for sim.Step() {
	}
	elapsed := time.Since(t0)
	delta := readCounters().since(before)
	if sends == 0 {
		return 0, 0
	}
	return float64(elapsed)/float64(sends) - poolNs, float64(delta.mallocs) / float64(sends)
}

// driveHistory inserts every recorded arrival into its node's window in
// recorded order and retires from the front in batches, as settlement
// does. Re-deliveries after a rollback carry the key they had the first
// time and land as duplicates, which is the lookup a real re-insert pays.
func driveHistory(n int, l *opLog, poolNs float64) float64 {
	wins := make([]*history.Window, n)
	for i := range wins {
		wins[i] = history.New(ordering.Optimized())
	}
	var pool msg.Pool
	inserts := 0
	t0 := time.Now()
	for _, o := range l.ops {
		if o.kind != opMessage {
			continue
		}
		src := &l.messages[o.arg]
		m := pool.Get()
		m.ID, m.From, m.To, m.Kind, m.Ann, m.LinkSeq = src.ID, src.From, src.To, src.Kind, src.Ann, src.LinkSeq
		w := wins[o.node]
		w.Insert(history.Entry{Key: ordering.KeyOf(m), Msg: m})
		m.Release()
		if w.Len() >= 64 {
			w.Retire(32)
		}
		inserts++
	}
	if inserts == 0 {
		return 0
	}
	return float64(time.Since(t0))/float64(inserts) - poolNs
}

// journalScript is the journal traffic of the run, reconstructed from the
// recorded marks: marks are absolute journal positions, so the distance
// between two observations of one node's journal is the number of entries
// recorded in between, and a rewind's two positions give its size.
type journalInstr struct {
	node   msg.NodeID
	kind   opKind // opMark = record n entries, opRewind, opCompact
	n      uint64
	target journal.Mark
}

func journalScript(nodes int, l *opLog) (script []journalInstr, records, undone uint64) {
	pos := make([]uint64, nodes)
	catchUp := func(node msg.NodeID, to uint64) {
		if to > pos[node] {
			script = append(script, journalInstr{node: node, kind: opMark, n: to - pos[node]})
			records += to - pos[node]
			pos[node] = to
		}
	}
	for _, o := range l.ops {
		switch o.kind {
		case opMark:
			catchUp(o.node, o.arg)
		case opRewind:
			catchUp(o.node, o.arg2)
			script = append(script, journalInstr{node: o.node, kind: opRewind, target: journal.Mark(o.arg)})
			undone += o.arg2 - o.arg
			pos[o.node] = o.arg
		case opCompact:
			script = append(script, journalInstr{node: o.node, kind: opCompact, target: journal.Mark(o.arg)})
		}
	}
	return script, records, undone
}

// undoEntry has the (slot, old value) shape of the daemons' undo records.
type undoEntry struct {
	slot uint32
	old  uint64
}

// driveJournal runs the script over per-node journals. Rewinds are few
// and each is timed on its own; everything else in the pass is Record (and
// the compaction that keeps it bounded). It also returns the script's
// entry counts, which the ledger multiplies the costs by.
func driveJournal(nodes int, l *opLog) (nsPerRecord, nsPerRewindEntry float64, records, undone uint64) {
	script, records, undone := journalScript(nodes, l)
	if records == 0 {
		return 0, 0, 0, 0
	}
	var cells [256]uint64
	logs := make([]*journal.Log[undoEntry], nodes)
	for i := range logs {
		logs[i] = journal.New(func(e undoEntry) { cells[e.slot&255] = e.old })
		logs[i].Enable()
	}
	var rewinding time.Duration
	t0 := clock()
	for _, in := range script {
		lg := logs[in.node]
		switch in.kind {
		case opMark:
			for k := uint64(0); k < in.n; k++ {
				lg.Record(undoEntry{slot: uint32(k), old: k})
			}
		case opRewind:
			s := clock()
			lg.Rewind(in.target)
			rewinding += clock() - s
		case opCompact:
			lg.Compact(in.target)
		}
	}
	whole := clock() - t0
	return float64(whole-rewinding) / float64(records), ratio(float64(rewinding), float64(undone)), records, undone
}

// driveMerge logs every recorded send as a window-phase action of the lane
// that owns its sender and merges the lanes' logs at the run's window
// count, so each Merge drains as many actions as a real barrier does.
func driveMerge(nodes, lanes int, l *opLog, windows uint64) (nsPerAction float64, actions uint64) {
	var senders uint64
	for _, o := range l.ops {
		if o.isHandler() && o.dests > 0 {
			senders++
		}
	}
	if senders == 0 || windows == 0 {
		return 0, 0
	}
	perWindow := (senders + windows - 1) / windows
	logs := make([]*shard.Log, lanes)
	for i := range logs {
		logs[i] = &shard.Log{}
	}
	m := &msg.Message{}
	var next uint64
	var busy time.Duration
	merge := func() {
		t0 := time.Now()
		shard.Merge(logs, &next, func(int, *shard.Exec, *shard.Action, uint64) {})
		busy += time.Since(t0)
		for _, lg := range logs {
			lg.Reset()
		}
	}
	var logged uint64
	for i, o := range l.ops {
		if !o.isHandler() || o.dests == 0 {
			continue
		}
		lg := logs[int(o.node)*lanes/nodes]
		lg.BeginExec(vtime.Time(i), uint64(i))
		for k := uint32(0); k < o.dests; k++ {
			lg.Add(shard.Action{Kind: shard.ActionSend, Msg: m})
			actions++
		}
		if logged++; logged%perWindow == 0 {
			merge()
		}
	}
	merge()
	return float64(busy) / float64(actions), actions
}
