// Package rip implements a Routing Information Protocol daemon — the
// subject of the paper's second case study (§4): the timing bug in Quagga
// 0.96.5's route-timer refresh.
//
// RIP keeps a timer per routing-table entry, refreshed by periodic
// announcements; an expired route is withdrawn. When comparing an incoming
// announcement with an installed route, the daemon must match both the
// destination *and the next hop*. Quagga 0.96.5 matched only the
// destination, so announcements from a backup router refresh the timer of
// the route through the (dead) main router; if a backup announcement
// arrives before the route expires, the stale route is refreshed forever —
// a permanent black hole (the paper's Figure 5).
//
// Mode selects the faithful buggy behaviour (Quagga0965) or the fixed one.
//
// The daemon implements api.RecomputeCached: the periodic announcement
// vectors are memoized on a journaled topology epoch folded over the
// distance-vector entries (prefix, next hop, metric — a timer refresh that
// only moves a route's Deadline is not an effective mutation and does not
// bump), so announcement rounds over an unchanged table reuse the shared
// immutable outputs with zero allocation.
package rip

import (
	"fmt"
	"sort"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/routecache"
	"defined/internal/vtime"
)

// Mode selects the timer-refresh comparison.
type Mode uint8

const (
	// Quagga0965 refreshes an installed route's timer on any
	// announcement for the same destination (the bug).
	Quagga0965 Mode = iota
	// FixedMode refreshes only when the announcing next hop matches the
	// installed route.
	FixedMode
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Quagga0965:
		return "quagga-0.96.5"
	case FixedMode:
		return "fixed"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Infinity is the RIP unreachable metric.
const Infinity = 16

// Config tunes protocol timing. Defaults follow RIP (30 s updates, 180 s
// timeout) — tests and the case study compress them to keep virtual
// runtimes short.
type Config struct {
	Mode Mode
	// UpdateInterval is the periodic announcement period (default 30 s).
	UpdateInterval vtime.Duration
	// Timeout expires a route that has not been refreshed (default 180 s).
	Timeout vtime.Duration
	// SplitHorizon suppresses advertising a route back to its next hop.
	SplitHorizon bool
}

func (c *Config) fillDefaults() {
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 30 * vtime.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 180 * vtime.Second
	}
}

// Originate is the external event that makes a router originate a prefix
// (it is directly connected to the destination).
type Originate struct {
	Prefix string `json:"prefix"`
	Metric int    `json:"metric"`
}

// ExternalKind implements api.ExternalEvent.
func (Originate) ExternalKind() string { return "rip-originate" }

// Crash is the external event that silently halts a router: it stops
// announcing and responding, as the failed main router R2 in Figure 5.
// (The failure is deliberately invisible to neighbors except through
// missed announcements — that is what makes the bug a *timing* bug.)
type Crash struct{}

// ExternalKind implements api.ExternalEvent.
func (Crash) ExternalKind() string { return "rip-crash" }

// announcement is the wire payload: the sender's distance vector.
type announcement struct {
	From   msg.NodeID
	Routes []advert
}

// advert is one advertised route. Immutable once sent.
type advert struct {
	Prefix string
	Metric int
}

// PayloadEqual implements msg.PayloadEq (the rollback engine's
// lazy-cancellation matching): an announcement holds a slice, so == cannot
// compare it.
func (a announcement) PayloadEqual(other any) bool {
	o, ok := other.(announcement)
	if !ok || a.From != o.From || len(a.Routes) != len(o.Routes) {
		return false
	}
	for i := range a.Routes {
		if a.Routes[i] != o.Routes[i] {
			return false
		}
	}
	return true
}

// routeEntry is one installed route.
type routeEntry struct {
	Prefix   string
	NextHop  msg.NodeID // msg.None when originated locally
	Metric   int
	Deadline vtime.Time // expiry; vtime.Never for local routes
}

// state is the daemon's checkpointable state: post-Init writes to these
// fields must go through the journaling setters below so MI rollback can
// rewind them.
//
//detlint:checkpointable
type state struct {
	table      map[string]routeEntry
	originated map[string]int // prefix → metric
	// epoch is the topology epoch: a commutative content hash of the
	// distance-vector entries (prefix, next hop, metric — Deadlines
	// excluded), bumped only by effective route changes. Journaled.
	epoch     uint64
	crashed   bool
	now       vtime.Time
	refreshes uint64 // count of timer refreshes
}

// Clone implements api.State.
func (s *state) Clone() api.State { return s.CloneInto(nil) }

// CloneInto implements api.Recyclable: dst's maps are cleared and refilled,
// keeping their buckets.
func (s *state) CloneInto(dst api.State) api.State {
	d, _ := dst.(*state)
	if d == nil {
		d = &state{
			table:      make(map[string]routeEntry, len(s.table)),
			originated: make(map[string]int, len(s.originated)),
		}
	}
	clear(d.table)
	for k, v := range s.table {
		d.table[k] = v
	}
	clear(d.originated)
	for k, v := range s.originated {
		d.originated[k] = v
	}
	d.epoch, d.crashed, d.now, d.refreshes = s.epoch, s.crashed, s.now, s.refreshes
	return d
}

// ---- undo journal (MI checkpointing) ----------------------------------------

// undoKind tags one journaled mutation of the daemon state.
type undoKind uint8

const (
	undoRoute      undoKind = iota // table[prefix] = route / delete
	undoOriginated                 // originated[prefix] = metric / delete
	undoEpoch                      // epoch = u64
	undoCrashed                    // crashed = b
	undoNow                        // now = t
	undoRefreshes                  // refreshes = u64
)

// undoRec is one compact undo entry: for map writes it is a (key,
// old-value, existed) triple.
type undoRec struct {
	kind   undoKind
	had    bool
	b      bool
	u64    uint64
	t      vtime.Time
	prefix string
	route  routeEntry
}

// applyUndo reverses one recorded mutation.
func (s *state) applyUndo(u undoRec) {
	switch u.kind {
	case undoRoute:
		if u.had {
			s.table[u.prefix] = u.route
		} else {
			delete(s.table, u.prefix)
		}
	case undoOriginated:
		if u.had {
			s.originated[u.prefix] = int(u.u64)
		} else {
			delete(s.originated, u.prefix)
		}
	case undoEpoch:
		s.epoch = u.u64
	case undoCrashed:
		s.crashed = u.b
	case undoNow:
		s.now = u.t
	case undoRefreshes:
		s.refreshes = u.u64
	}
}

// Daemon is one RIP instance.
type Daemon struct {
	cfg       Config
	self      msg.NodeID
	neighbors []api.Neighbor
	st        *state

	// j is the undo journal backing MI checkpoints; disabled (and empty)
	// unless the substrate calls JournalEnable.
	j *journal.Log[undoRec]

	// cache memoizes epoch → announcement vector (api.RecomputeCached).
	// Daemon-level, not checkpointable state: entries are immutable shared
	// outputs keyed by content epoch, valid in every timeline.
	cache routecache.Ring[uint64, []msg.Out]
}

// New creates a daemon.
func New(cfg Config) *Daemon {
	cfg.fillDefaults()
	d := &Daemon{cfg: cfg}
	d.j = journal.New(func(u undoRec) { d.st.applyUndo(u) })
	return d
}

var (
	_ api.Application     = (*Daemon)(nil)
	_ api.Journaled       = (*Daemon)(nil)
	_ api.Recyclable      = (*state)(nil)
	_ api.RecomputeCached = (*Daemon)(nil)
)

// RouteCacheStats implements api.RecomputeCached.
func (d *Daemon) RouteCacheStats() api.RouteCacheStats { return d.cache.Stats() }

// SetRouteCaching implements api.RecomputeCached.
func (d *Daemon) SetRouteCaching(on bool) { d.cache.SetEnabled(on) }

// JournalEnable implements api.Journaled.
func (d *Daemon) JournalEnable() { d.j.Enable() }

// JournalMark implements api.Journaled.
func (d *Daemon) JournalMark() journal.Mark { return d.j.Mark() }

// JournalRewind implements api.Journaled.
func (d *Daemon) JournalRewind(m journal.Mark) { d.j.Rewind(m) }

// JournalCompact implements api.Journaled.
func (d *Daemon) JournalCompact(m journal.Mark) { d.j.Compact(m) }

// The journaling setters below are the only paths that mutate daemon state
// after Init; each records the old value before writing.

func (d *Daemon) setRoute(prefix string, e routeEntry) {
	old, had := d.st.table[prefix]
	d.j.Record(undoRec{kind: undoRoute, prefix: prefix, route: old, had: had})
	d.st.table[prefix] = e
	// Epoch-bump contract: only a distance-vector entry change — next hop
	// or metric — is an effective mutation. A timer refresh (same route,
	// newer Deadline) leaves the announced content, and so the epoch and
	// the cached announcement vector, untouched.
	oldH := uint64(0)
	if had {
		oldH = routeContentHash(old)
	}
	if newH := routeContentHash(e); newH != oldH {
		d.bumpEpoch(newH - oldH)
	}
}

func (d *Daemon) delRoute(prefix string) {
	old, had := d.st.table[prefix]
	if !had {
		return
	}
	d.j.Record(undoRec{kind: undoRoute, prefix: prefix, route: old, had: true})
	delete(d.st.table, prefix)
	d.bumpEpoch(-routeContentHash(old))
}

// routeContentHash fingerprints the announced content of one route:
// prefix, next hop and metric. The Deadline is a local timer, invisible in
// announcements, and deliberately excluded.
func routeContentHash(e routeEntry) uint64 {
	h := routecache.Hash()
	h = routecache.HashString(h, e.Prefix)
	h = routecache.HashUint64(h, uint64(e.NextHop))
	h = routecache.HashUint64(h, uint64(e.Metric))
	return routecache.Finish(h)
}

// bumpEpoch moves the topology epoch by a commutative content delta; the
// old value is journaled so MI rewinds un-bump it.
func (d *Daemon) bumpEpoch(delta uint64) {
	d.j.Record(undoRec{kind: undoEpoch, u64: d.st.epoch})
	d.st.epoch += delta
}

func (d *Daemon) setOriginated(prefix string, metric int) {
	old, had := d.st.originated[prefix]
	d.j.Record(undoRec{kind: undoOriginated, prefix: prefix, u64: uint64(old), had: had})
	d.st.originated[prefix] = metric
}

func (d *Daemon) setCrashed(v bool) {
	if d.st.crashed == v {
		return
	}
	d.j.Record(undoRec{kind: undoCrashed, b: d.st.crashed})
	d.st.crashed = v
}

func (d *Daemon) setNow(t vtime.Time) {
	if d.st.now == t {
		return
	}
	d.j.Record(undoRec{kind: undoNow, t: d.st.now})
	d.st.now = t
}

func (d *Daemon) bumpRefreshes() {
	d.j.Record(undoRec{kind: undoRefreshes, u64: d.st.refreshes})
	d.st.refreshes++
}

// Init implements api.Application.
func (d *Daemon) Init(self msg.NodeID, neighbors []api.Neighbor) {
	d.self = self
	d.neighbors = append([]api.Neighbor(nil), neighbors...)
	sort.Slice(d.neighbors, func(i, j int) bool { return d.neighbors[i].ID < d.neighbors[j].ID })
	d.st = &state{table: map[string]routeEntry{}, originated: map[string]int{}}
}

// announceOuts builds the periodic announcement to every neighbor. The
// vector is a pure function of the distance-vector content (the epoch), so
// it is memoized: announcement rounds over an unchanged table — the common
// steady state, and every rollback replay of one — reuse the shared
// immutable outputs with zero allocation.
func (d *Daemon) announceOuts() []msg.Out {
	if outs, ok := d.cache.Lookup(d.st.epoch); ok {
		return outs
	}
	prefixes := make([]string, 0, len(d.st.table))
	for p := range d.st.table {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	var outs []msg.Out
	for _, nb := range d.neighbors {
		var routes []advert
		for _, p := range prefixes {
			e := d.st.table[p]
			if d.cfg.SplitHorizon && e.NextHop == nb.ID {
				continue
			}
			routes = append(routes, advert{Prefix: p, Metric: e.Metric})
		}
		if len(routes) == 0 {
			continue
		}
		outs = append(outs, msg.Out{To: nb.ID, Payload: announcement{From: d.self, Routes: routes}})
	}
	d.cache.Insert(d.st.epoch, outs)
	return outs
}

// HandleTimer implements api.Application: periodic announcements and route
// expiry.
func (d *Daemon) HandleTimer(now vtime.Time) []msg.Out {
	d.setNow(now)
	if d.st.crashed {
		return nil
	}
	// Expire routes first (an expiry and an announcement in the same
	// batch must not let the stale route ride out). Collect-then-sort
	// pins the deletion order: the expiries are mutually independent, but
	// each delRoute journals an undo entry and bumps the epoch, and those
	// side effects should land in the same order every run rather than in
	// map order (detlint:maprange). Allocates only when something expired.
	var expired []string
	for p, e := range d.st.table {
		if e.Deadline != vtime.Never && now.After(e.Deadline) {
			expired = append(expired, p)
		}
	}
	sort.Strings(expired)
	for _, p := range expired {
		d.delRoute(p)
	}
	if int64(now)%int64(d.cfg.UpdateInterval) == 0 {
		return d.announceOuts()
	}
	return nil
}

// HandleMessage implements api.Application: process a neighbor's
// announcement.
func (d *Daemon) HandleMessage(m *msg.Message) []msg.Out {
	if d.st.crashed {
		return nil
	}
	ann, ok := m.Payload.(announcement)
	if !ok {
		return nil
	}
	for _, adv := range ann.Routes {
		d.learn(adv, ann.From)
	}
	return nil
}

// learn applies one advertised route from neighbor via.
func (d *Daemon) learn(adv advert, via msg.NodeID) {
	metric := adv.Metric + 1
	if metric > Infinity {
		metric = Infinity
	}
	cur, have := d.st.table[adv.Prefix]
	if have && cur.NextHop == msg.None {
		return // locally originated routes never change
	}
	deadline := d.st.now.Add(d.cfg.Timeout)
	switch {
	case !have:
		if metric < Infinity {
			d.setRoute(adv.Prefix, routeEntry{
				Prefix: adv.Prefix, NextHop: via, Metric: metric, Deadline: deadline,
			})
		}
	case via == cur.NextHop:
		// Same next hop: always accept (metric may worsen) and refresh.
		if metric >= Infinity {
			d.delRoute(adv.Prefix)
			return
		}
		cur.Metric = metric
		cur.Deadline = deadline
		d.setRoute(adv.Prefix, cur)
		d.bumpRefreshes()
	case metric < cur.Metric:
		// Strictly better via another neighbor: switch.
		d.setRoute(adv.Prefix, routeEntry{
			Prefix: adv.Prefix, NextHop: via, Metric: metric, Deadline: deadline,
		})
	default:
		// Equal-or-worse route from a different next hop. THE BUG:
		// Quagga 0.96.5 compares only the destination when deciding
		// whether this announcement refreshes the installed route's
		// timer, so the backup's announcements keep the dead main
		// route alive (paper Figure 5).
		if d.cfg.Mode == Quagga0965 {
			cur.Deadline = deadline
			d.setRoute(adv.Prefix, cur)
			d.bumpRefreshes()
		}
		// FixedMode: ignore — the timer belongs to cur.NextHop.
	}
}

// HandleExternal implements api.Application.
func (d *Daemon) HandleExternal(ev api.ExternalEvent) []msg.Out {
	switch e := ev.(type) {
	case Originate:
		d.setOriginated(e.Prefix, e.Metric)
		d.setRoute(e.Prefix, routeEntry{
			Prefix: e.Prefix, NextHop: msg.None, Metric: e.Metric, Deadline: vtime.Never,
		})
		return d.announceOuts()
	case Crash:
		d.setCrashed(true)
		return nil
	case api.PeerRestart:
		// The peer rebooted with an empty table: re-announce immediately so
		// it relearns our routes without waiting out an update interval.
		// RIP needs no sequence-number repair (announcements are stateless
		// refreshes), and a crashed daemon stays silent like everywhere else.
		if d.st.crashed {
			return nil
		}
		return d.announceOuts()
	case api.LinkChange:
		// RIP learns topology only through announcements and timeouts;
		// interface events are ignored (that is what makes the Figure 5
		// scenario a timing bug).
		return nil
	default:
		return nil
	}
}

// State implements api.Application.
func (d *Daemon) State() api.State { return d.st }

// Restore implements api.Application.
func (d *Daemon) Restore(st api.State) { d.st = st.(*state) }

// Route returns the installed route for prefix.
func (d *Daemon) Route(prefix string) (nextHop msg.NodeID, metric int, ok bool) {
	e, ok := d.st.table[prefix]
	if !ok {
		return msg.None, Infinity, false
	}
	return e.NextHop, e.Metric, true
}

// Crashed reports whether the daemon has been halted by a Crash event.
func (d *Daemon) Crashed() bool { return d.st.crashed }

// Refreshes reports how many timer refreshes occurred.
func (d *Daemon) Refreshes() uint64 { return d.st.refreshes }

// DumpTable renders the routing table sorted by prefix (debugger).
func (d *Daemon) DumpTable() string {
	prefixes := make([]string, 0, len(d.st.table))
	for p := range d.st.table {
		prefixes = append(prefixes, p)
	}
	sort.Strings(prefixes)
	out := ""
	for _, p := range prefixes {
		e := d.st.table[p]
		out += fmt.Sprintf("prefix %s via %d metric %d deadline %v\n", p, e.NextHop, e.Metric, e.Deadline)
	}
	return out
}
