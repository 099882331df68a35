package main

// Tracing, from the harness only. Two kinds of span:
//
//   - phase spans around front-door calls (parse, resolve, expand, boot,
//     run, ...), kept one by one with name, start, end and parent;
//   - handler spans from a decorator wrapped around every api.Application
//     before the engine is built. They are far too many to keep one by
//     one, so each decorator folds them into a per-method aggregate
//     (count, sum, log2 histogram) whose parent is the rep's run span. A
//     decorator is only ever entered by the goroutine that owns its node,
//     so the aggregates need no locking on the sharded engine either.
//
// Engine self time is the run span minus the handler aggregates: the
// engine packages themselves never read a clock.

import (
	"math/bits"
	"strings"
	"time"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/vtime"
)

// span is one phase span. Times are nanoseconds since the tracer began.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into tracer.Spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	Spans []span
}

func newTracer() *tracer { return &tracer{} }

// epoch anchors the trace clock. The decorator reads the clock twice per
// intercepted call; time.Since reads only the monotonic clock where
// time.Now reads the wall clock as well (35 ns against 60 ns here).
var epoch = time.Now()

func clock() time.Duration { return time.Since(epoch) }

// spanCost is what an empty span measures: the part of the two clock
// reads that falls inside it. It is taken off every handler span, or a
// 2 ns JournalMark would be reported as a 40 ns one.
var spanCost = func() time.Duration {
	d := make([]float64, 1001)
	for i := range d {
		s := clock()
		d[i] = float64(clock() - s)
	}
	return time.Duration(median(d))
}()

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.Spans = append(t.Spans, span{Name: name, Parent: parent, Start: int64(clock())})
	return len(t.Spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.Spans[i].End = int64(clock())
	return time.Duration(t.Spans[i].End - t.Spans[i].Start)
}

// method indexes the calls the decorator times.
type method uint8

const (
	mInit method = iota
	mMessage
	mTimer
	mExternal
	// Checkpoint layer: everything the engine calls to capture or
	// reinstate application state.
	mClone        // State().Clone() — a full-clone capture
	mRestoreClone // snapshot.Clone() — the copy Restore adopts
	mRestore
	mMark
	mRewind
	mCompact
	numMethods
)

var methodNames = [numMethods]string{
	"Init", "HandleMessage", "HandleTimer", "HandleExternal",
	"State.Clone", "Snapshot.Clone", "Restore",
	"JournalMark", "JournalRewind", "JournalCompact",
}

func (m method) isHandler() bool    { return m >= mMessage && m <= mExternal }
func (m method) isCheckpoint() bool { return m >= mClone }

// histBuckets log2 buckets cover 1 ns .. ~9 min.
const histBuckets = 40

// agg is the aggregate of one method's spans. Timed is below Count only
// for JournalMark, whose calls are all counted but timed one in markSample.
type agg struct {
	Count uint64              `json:"count"`
	Timed uint64              `json:"timed"`
	SumNs int64               `json:"sum_ns"` // of the timed spans
	Hist  [histBuckets]uint32 `json:"log2_ns_hist"`
}

// total is the time of all Count calls, the untimed ones taken at the
// timed mean.
func (a *agg) total() time.Duration {
	if a.Timed == 0 {
		return 0
	}
	return time.Duration(float64(a.SumNs) * float64(a.Count) / float64(a.Timed))
}

func (a *agg) observe(d time.Duration) {
	if d -= spanCost; d < 0 {
		d = 0
	}
	a.Count++
	a.Timed++
	a.SumNs += int64(d)
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.Hist[b]++
}

func (a *agg) add(b *agg) {
	a.Count += b.Count
	a.Timed += b.Timed
	a.SumNs += b.SumNs
	for i := range a.Hist {
		a.Hist[i] += b.Hist[i]
	}
}

// tracedApp is the span decorator. It is handed to the engine in place of
// the application it wraps; see wrapApp for the optional capabilities.
type tracedApp struct {
	inner api.Application
	node  msg.NodeID
	proto string // "ospf", "ospf+bgp", ... — the aggregation label
	aggs  [numMethods]agg
	rec   *opLog // non-nil only on the recording rep
}

func (t *tracedApp) Init(self msg.NodeID, neighbors []api.Neighbor) {
	if t.rec != nil {
		t.rec.init(t.node, self, neighbors)
	}
	s := clock()
	t.inner.Init(self, neighbors)
	t.aggs[mInit].observe(clock() - s)
}

func (t *tracedApp) HandleMessage(m *msg.Message) []msg.Out {
	s := clock()
	outs := t.inner.HandleMessage(m)
	t.aggs[mMessage].observe(clock() - s)
	if t.rec != nil {
		t.rec.message(t.node, m, outs)
	}
	return outs
}

func (t *tracedApp) HandleTimer(now vtime.Time) []msg.Out {
	s := clock()
	outs := t.inner.HandleTimer(now)
	t.aggs[mTimer].observe(clock() - s)
	if t.rec != nil {
		t.rec.timer(t.node, now, outs)
	}
	return outs
}

func (t *tracedApp) HandleExternal(ev api.ExternalEvent) []msg.Out {
	s := clock()
	outs := t.inner.HandleExternal(ev)
	t.aggs[mExternal].observe(clock() - s)
	if t.rec != nil {
		t.rec.external(t.node, ev, outs)
	}
	return outs
}

// tracedState wraps a checkpointable state so Clone is timed. id is 0 for
// the live state State() hands out and a fresh positive number for every
// clone, which is how the recording rep tells a capture (clone of the live
// state) from the copy a restore adopts (clone of a snapshot).
type tracedState struct {
	inner api.State
	app   *tracedApp
	id    int64
}

func (t *tracedApp) State() api.State {
	return &tracedState{inner: t.inner.State(), app: t}
}

func (s *tracedState) Clone() api.State {
	m := mClone
	if s.id != 0 {
		m = mRestoreClone
	}
	t0 := clock()
	c := s.inner.Clone()
	s.app.aggs[m].observe(clock() - t0)
	out := &tracedState{inner: c, app: s.app}
	if r := s.app.rec; r != nil {
		out.id = r.clone(s.app.node, s.id)
	} else {
		out.id = -1
	}
	return out
}

func (t *tracedApp) Restore(st api.State) {
	ts := st.(*tracedState)
	if t.rec != nil {
		t.rec.restore(t.node, ts.id)
	}
	s := clock()
	t.inner.Restore(ts.inner)
	t.aggs[mRestore].observe(clock() - s)
}

// journaledPart forwards api.Journaled with spans.
type journaledPart struct {
	t *tracedApp
	j api.Journaled
}

func (p journaledPart) JournalEnable() {
	if p.t.rec != nil {
		p.t.rec.add(op{node: p.t.node, kind: opEnable})
	}
	p.j.JournalEnable()
}

// markSample: JournalMark runs before every delivery and costs a field
// read, so a span around each one would be the decorator's largest
// overhead for its smallest layer. One call in markSample is timed.
const markSample = 16

func (p journaledPart) JournalMark() journal.Mark {
	var m journal.Mark
	if a := &p.t.aggs[mMark]; a.Count%markSample != 0 {
		a.Count++
		m = p.j.JournalMark()
	} else {
		s := clock()
		m = p.j.JournalMark()
		a.observe(clock() - s)
	}
	if p.t.rec != nil {
		p.t.rec.add(op{node: p.t.node, kind: opMark, arg: uint64(m)})
	}
	return m
}

func (p journaledPart) JournalRewind(m journal.Mark) {
	if p.t.rec != nil {
		// The journal position the rewind starts from is not otherwise
		// observable; it is what sizes the rewind.
		p.t.rec.add(op{node: p.t.node, kind: opRewind, arg: uint64(m), arg2: uint64(p.j.JournalMark())})
	}
	s := clock()
	p.j.JournalRewind(m)
	p.t.aggs[mRewind].observe(clock() - s)
}

func (p journaledPart) JournalCompact(m journal.Mark) {
	if p.t.rec != nil {
		p.t.rec.add(op{node: p.t.node, kind: opCompact, arg: uint64(m)})
	}
	s := clock()
	p.j.JournalCompact(m)
	p.t.aggs[mCompact].observe(clock() - s)
}

// cachedPart forwards api.RecomputeCached untimed: the engine only calls
// it outside the run (configuration and Stats()).
type cachedPart struct{ c api.RecomputeCached }

func (p cachedPart) RouteCacheStats() api.RouteCacheStats { return p.c.RouteCacheStats() }
func (p cachedPart) SetRouteCaching(on bool)              { p.c.SetRouteCaching(on) }

// wrapApp decorates inner. The engine probes applications for
// api.Journaled and api.RecomputeCached with type assertions and picks its
// checkpoint mode from the answer, so the decorator must expose each
// capability exactly when the inner application has it.
func wrapApp(inner api.Application, node msg.NodeID, protocols []string, rec *opLog) (api.Application, *tracedApp) {
	t := &tracedApp{inner: inner, node: node, proto: strings.Join(protocols, "+"), rec: rec}
	j, isJ := inner.(api.Journaled)
	c, isC := inner.(api.RecomputeCached)
	switch {
	case isJ && isC:
		return struct {
			*tracedApp
			journaledPart
			cachedPart
		}{t, journaledPart{t, j}, cachedPart{c}}, t
	case isJ:
		return struct {
			*tracedApp
			journaledPart
		}{t, journaledPart{t, j}}, t
	case isC:
		return struct {
			*tracedApp
			cachedPart
		}{t, cachedPart{c}}, t
	}
	return t, t
}

// unwrapApp returns the application under a decorator (or app itself).
func unwrapApp(app api.Application) api.Application {
	if u, ok := app.(interface{ unwrap() api.Application }); ok {
		return u.unwrap()
	}
	return app
}

func (t *tracedApp) unwrap() api.Application { return t.inner }

// methodTotals is the run's handler aggregate: per protocol label and
// summed over all of them.
type methodTotals struct {
	ByProto map[string]*[numMethods]agg
	All     [numMethods]agg
}

func sumApps(apps []*tracedApp) *methodTotals {
	mt := &methodTotals{ByProto: map[string]*[numMethods]agg{}}
	for _, t := range apps {
		p := mt.ByProto[t.proto]
		if p == nil {
			p = new([numMethods]agg)
			mt.ByProto[t.proto] = p
		}
		for m := range t.aggs {
			p[m].add(&t.aggs[m])
			mt.All[m].add(&t.aggs[m])
		}
	}
	return mt
}

// sum adds up the spans of the methods pick selects.
func (mt *methodTotals) sum(pick func(method) bool) (count uint64, d time.Duration) {
	for m := method(0); m < numMethods; m++ {
		if pick(m) {
			count += mt.All[m].Count
			d += mt.All[m].total()
		}
	}
	return count, d
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		parent -= c
	}
	return parent
}
