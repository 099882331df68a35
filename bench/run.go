package main

// One rep: build a fresh network from the generated Spec through the
// front door, run it, measure at the boundaries, check the outputs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"defined"
	"defined/internal/faults"
	"defined/internal/record"
	"defined/internal/rollback"
	"defined/internal/routing/api"
	"defined/internal/scenario"
)

// network is what a rep needs from a booted production network.
// *defined.Network is the front-door implementation; tracedNet is the one
// the traced pass builds around decorated applications.
type network interface {
	RunPlan(p *defined.Plan) bool
	Stats() defined.Stats
	WindowStats() (windows, serialSteps uint64)
	CheckFaults(cfg faults.CheckConfig) *faults.Report
	App(id defined.NodeID) defined.Application
	CommittedOrder(id defined.NodeID) []string
}

// tracedNet mirrors defined.NewNetworkFromPlan and Network.RunPlan around
// an engine built from decorated applications — the front door builds its
// own applications from the plan and offers no place to wrap them.
type tracedNet struct {
	eng *rollback.Engine
	g   *defined.Topology
}

func bootTraced(p *defined.Plan, rec *opLog) (*tracedNet, []*tracedApp) {
	apps := p.Apps()
	decs := make([]*tracedApp, len(apps))
	for i := range apps {
		apps[i], decs[i] = wrapApp(apps[i], defined.NodeID(i), p.Nodes[i].Protocols, rec)
	}
	n := &tracedNet{eng: rollback.New(p.Graph, apps, p.Engine), g: p.Graph}
	for _, ev := range p.Events {
		if ev.IsLink {
			n.eng.Sim().ScheduleFn(ev.At, func() { _ = n.eng.InjectLinkChange(ev.A, ev.B, ev.Up) })
		} else {
			n.eng.Sim().ScheduleFn(ev.At, func() { n.eng.InjectExternal(ev.Node, ev.Ev) })
		}
	}
	return n, decs
}

func (n *tracedNet) RunPlan(p *defined.Plan) bool {
	n.eng.Run(p.RunUntil)
	return p.Drain && n.eng.RunQuiescent(50_000_000)
}
func (n *tracedNet) Stats() defined.Stats { return n.eng.Stats() }
func (n *tracedNet) WindowStats() (uint64, uint64) {
	return n.eng.Sim().Windows(), n.eng.Sim().SerialSteps()
}
func (n *tracedNet) CheckFaults(cfg faults.CheckConfig) *faults.Report {
	return faults.Check(n.eng, n.g, cfg)
}
func (n *tracedNet) App(id defined.NodeID) defined.Application { return n.eng.App(id) }
func (n *tracedNet) CommittedOrder(id defined.NodeID) []string {
	keys := n.eng.CommittedKeys(id)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// counters is the process-wide state read at the boundaries of the timed
// interval.
type counters struct {
	mallocs, bytes uint64
	gcCPU          float64 // seconds
	gcCycles       uint64
	cpu            time.Duration // user+system, whole process
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSamples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return counters{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    gcSamples[0].Value.Float64(),
		gcCycles: gcSamples[1].Value.Uint64(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

func (a counters) since(b counters) counters {
	return counters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.gcCycles - b.gcCycles, a.cpu - b.cpu}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// repOpts selects the rep variant.
type repOpts struct {
	// deliveryLog retains committed orders so the rep can fingerprint
	// them (the untimed check rep).
	deliveryLog bool
	// setupOnly stops once the network (or Replay) is ready: one sample of
	// the set-up loop.
	setupOnly bool
	// trace decorates the applications and records phase spans; rec
	// additionally records the op stream.
	trace *tracer
	rec   *opLog
}

// rep is everything one rep measured.
type rep struct {
	setup     time.Duration // ParseSpec through the network (or Replay) being ready
	run       time.Duration // RunPlan, or the whole StepRound loop
	delta     counters      // over the same interval as run
	committed uint64
	liveHeap  uint64
	stats     defined.Stats // of the production run
	windows   uint64
	serial    uint64
	tables    uint64    // fingerprint of every node's final routing tables
	order     uint64    // fingerprint of every node's committed order; 0 unless known
	stepsUs   []float64 // replay workload: wall of every StepRound

	// Traced reps only.
	runSpan   int // the span the handler aggregates hang under
	phases    map[string]time.Duration
	bootBytes uint64
	totals    *methodTotals
	processed uint64 // events the simulator executed
	sent      uint64 // wire sends, all traffic classes

	// Replay workload only: the parts of its set-up.
	production time.Duration // RunPlan with record=true
	encDec     time.Duration
	newReplay  time.Duration
	recEvents  int
	recBytes   int
}

func (r *rep) nsPerCommitted() float64 { return float64(r.run) / float64(r.committed) }

// phaser records the phase spans of one traced rep; on an untraced rep
// every method is a no-op.
type phaser struct {
	tr   *tracer
	root int
	sum  map[string]time.Duration
}

// begin opens a phase span and returns its index and the func that ends it.
func (ph *phaser) begin(name string) (int, func()) {
	if ph.tr == nil {
		return -1, func() {}
	}
	i := ph.tr.begin(name, ph.root)
	return i, func() { ph.sum[name] += ph.tr.end(i) }
}

// runRep executes one rep of w on spec and checks its outputs. A returned
// error is a failed operation; the rep's timings are then unusable.
func runRep(w workload, spec scenario.Spec, o repOpts) (*rep, error) {
	if o.deliveryLog {
		spec.Engine.DeliveryLog = ptr(true)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: marshal generated spec: %w", w.name, err)
	}
	r := &rep{phases: map[string]time.Duration{}}
	ph := &phaser{tr: o.trace, root: -1, sum: r.phases}
	if o.trace != nil {
		ph.root = o.trace.begin("rep", -1)
		defer o.trace.end(ph.root)
	}
	runtime.GC() // every rep starts from the same heap

	start := time.Now()
	_, done := ph.begin("scenario.parse_resolve")
	s, err := scenario.ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	rs, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	done()
	_, done = ph.begin("scenario.expand")
	p, err := rs.Expand()
	if err != nil {
		return nil, err
	}
	done()

	// The replay workload's production run is set-up, not the system
	// under test: it always boots through the front door, undecorated.
	var net network
	var decs []*tracedApp
	var bootStart counters
	if o.trace != nil {
		bootStart = readCounters() // a stop-the-world read: kept out of untraced set-up
	}
	_, done = ph.begin("boot")
	if o.trace != nil && !w.replay {
		net, decs = bootTraced(p, o.rec)
	} else {
		net = defined.NewNetworkFromPlan(p)
	}
	done()
	if o.trace != nil {
		r.bootBytes = readCounters().since(bootStart).bytes
	}

	if w.replay {
		err = replayRep(w, r, p, net.(*defined.Network), start, o, ph)
	} else if r.setup = time.Since(start); o.setupOnly {
		return r, nil
	} else {
		before := readCounters()
		var done func()
		r.runSpan, done = ph.begin("run")
		t0 := time.Now()
		quiesced := net.RunPlan(p)
		r.run = time.Since(t0)
		done()
		r.delta = readCounters().since(before)
		err = checkProduction(w, p, net, quiesced)
		r.tables = tableFingerprint(p, net.App)
		if o.deliveryLog {
			r.order = orderFingerprint(p.Graph.N, net.CommittedOrder)
		}
		r.committed = net.Stats().CommittedDeliveries()
		if decs != nil {
			r.totals = sumApps(decs)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.stats = net.Stats()
	r.windows, r.serial = net.WindowStats()
	if tn, ok := net.(*tracedNet); ok {
		r.processed = tn.eng.Sim().Processed()
		for i := 0; i < p.Graph.N; i++ {
			r.sent += tn.eng.Sim().Stats(defined.NodeID(i)).Sent
		}
	}
	if o.trace != nil {
		// Not part of set-up or of the run: timed for its own metric only.
		_, done = ph.begin("scenario.fingerprint")
		p.Fingerprint()
		done()
	}
	r.liveHeap = liveHeap()
	runtime.KeepAlive(net)
	return r, nil
}

// replayRep is the sprint_replay rep after boot: the recorded production
// run, the recording's encode/decode round trip and NewReplay are set-up;
// the StepRound loop is the timed interval.
func replayRep(w workload, r *rep, p *defined.Plan, net *defined.Network, start time.Time, o repOpts, ph *phaser) error {
	_, done := ph.begin("record.production")
	t0 := time.Now()
	quiesced := net.RunPlan(p)
	r.production = time.Since(t0)
	done()
	if err := checkProduction(w, p, net, quiesced); err != nil {
		return err
	}
	prodTables := tableFingerprint(p, net.App)
	var prodOrder uint64
	if o.deliveryLog {
		prodOrder = orderFingerprint(p.Graph.N, net.CommittedOrder)
	}

	_, done = ph.begin("record.encode_decode")
	t0 = time.Now()
	recording := net.Recording()
	var buf bytes.Buffer
	if err := recording.Encode(&buf); err != nil {
		return fmt.Errorf("encode recording: %w", err)
	}
	r.recEvents, r.recBytes = len(recording.Events), buf.Len()
	decoded, err := record.Decode(&buf)
	if err != nil {
		return fmt.Errorf("decode recording: %w", err)
	}
	r.encDec = time.Since(t0)
	done()

	_, done = ph.begin("lockstep.new")
	t0 = time.Now()
	apps := p.Apps()
	var decs []*tracedApp
	if o.trace != nil {
		decs = make([]*tracedApp, len(apps))
		for i := range apps {
			apps[i], decs[i] = wrapApp(apps[i], defined.NodeID(i), p.Nodes[i].Protocols, o.rec)
		}
	}
	rp, err := defined.NewReplay(p.Graph, apps, decoded)
	if err != nil {
		return fmt.Errorf("new replay: %w", err)
	}
	r.newReplay = time.Since(t0)
	done()
	if r.setup = time.Since(start); o.setupOnly {
		return nil
	}

	r.stepsUs = make([]float64, 0, 1<<14)
	before := readCounters()
	r.runSpan, done = ph.begin("run")
	t0 = time.Now()
	for {
		s := time.Now()
		if !rp.StepRound() {
			break
		}
		r.stepsUs = append(r.stepsUs, float64(time.Since(s))/1e3)
	}
	r.run = time.Since(t0)
	done()
	r.delta = readCounters().since(before)

	if !rp.Done() {
		return fmt.Errorf("replay stopped before the end of the recording")
	}
	for _, st := range rp.Steps() {
		r.committed += uint64(st.Deliveries)
	}
	if want := net.Stats().CommittedDeliveries(); r.committed != want {
		return fmt.Errorf("replay delivered %d events, production committed %d", r.committed, want)
	}
	r.tables = tableFingerprint(p, rp.App)
	if r.tables != prodTables {
		return fmt.Errorf("replay routing tables differ from production's")
	}
	r.order = orderFingerprint(p.Graph.N, rp.DeliveredOrder)
	if o.deliveryLog && r.order != prodOrder {
		return fmt.Errorf("replay delivered order %#x differs from production committed order %#x (RB ≡ LS broken)", r.order, prodOrder)
	}
	if decs != nil {
		r.totals = sumApps(decs)
	}
	return nil
}

// checkProduction is the per-rep invariant gate on a production run.
func checkProduction(w workload, p *defined.Plan, net network, quiesced bool) error {
	if !quiesced {
		return fmt.Errorf("network did not quiesce")
	}
	var cfg faults.CheckConfig
	if w.flat {
		// Every node runs OSPF and every flap has healed: each routing
		// table must match shortest paths. One table per source, not per
		// pair.
		cached, table := defined.NodeID(-1), map[defined.NodeID]int64(nil)
		cfg.Routes = func(src, dst defined.NodeID) (int64, bool) {
			if src != cached {
				cached, table = src, map[defined.NodeID]int64{}
				for d, route := range scenario.OSPF(unwrapApp(net.App(src))).RoutingTable() {
					table[d] = int64(route.Cost)
				}
			}
			c, ok := table[dst]
			return c, ok
		}
	}
	return net.CheckFaults(cfg).Err()
}

// orderFingerprint hashes every node's delivery order.
func orderFingerprint(n int, order func(defined.NodeID) []string) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		fmt.Fprintf(h, "node %d\n", i)
		for _, k := range order(defined.NodeID(i)) {
			h.Write([]byte(k))
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// tableFingerprint hashes every node's final routing state, protocol by
// protocol.
func tableFingerprint(p *defined.Plan, app func(defined.NodeID) api.Application) uint64 {
	h := fnv.New64a()
	for i := 0; i < p.Graph.N; i++ {
		a := unwrapApp(app(defined.NodeID(i)))
		fmt.Fprintf(h, "node %d\n", i)
		if d := scenario.OSPF(a); d != nil {
			h.Write([]byte(d.DumpTable()))
		}
		if d := scenario.RIP(a); d != nil {
			h.Write([]byte(d.DumpTable()))
		}
		if d := scenario.BGP(a); d != nil {
			for as := range p.Hier.Borders {
				best, ok := d.Best(fmt.Sprintf("as%d", as))
				fmt.Fprintf(h, "as%d %v %+v\n", as, ok, best)
			}
		}
	}
	return h.Sum64()
}
