// Package ospf implements a link-state interior routing daemon — the
// control-plane workload of the paper's evaluation (§5: "we run our
// implementation with the XORP OSPF router daemon").
//
// The daemon implements the OSPF mechanisms the evaluation exercises:
// hello keepalives with dead-interval detection, link-state advertisement
// (LSA) origination and reliable-style flooding with sequence numbers, and
// shortest-path-first (Dijkstra) route computation. It mirrors the paper's
// setup: HelloInterval is reduced to 1 s to stress the substrate, and a
// received newer LSA floods on at once — the paper removes XORP's default
// 1 s flood holddown to expose DEFINED's overheads (Figure 6b), and so has
// this daemon.
//
// # Topology epoch and the SPF result cache
//
// The daemon implements api.RecomputeCached: SPF results are memoized on a
// journaled **topology epoch**. The epoch-bump contract — what counts as
// an *effective* routing-input mutation — is exactly "the SPF input
// changed": the routing table is a pure function of the LSDB's per-origin
// link sets (bidirectional-adjacency checks read the LSDB too), so the
// epoch folds a commutative content hash of (origin, links) pairs and
// setLSDB bumps it only when an installed LSA's links actually differ from
// the stored one's. A refreshed LSA with identical links (higher Seq) and
// a duplicate flood arrival do NOT bump; adjacency flags (adjUp) affect
// flooding but not the table, so they never bump either. The epoch and the
// table's epoch stamp are journaled state: an MI rewind un-bumps the epoch
// and restores the exact table pointer, so cache coherence survives
// rollback, and a rollback replay that re-applies the same mutations
// passes through already-seen epochs and reuses their memoized tables.
//
// # Incremental SPF
//
// A cache miss does not start over either. A route is a label — the
// lexicographic minimum of (cost, first hop) over all paths from this
// router across usable links (advertised by both ends; costs are positive,
// api.LinkCost floors at 1). Dijkstra computes the labels from scratch with
// a binary heap of cost<<32|id keys: smallest cost first, ties to the
// smallest id. But nearly every miss follows the install of one origin's
// LSA, so setLSDB leaves a note — (origin, old LSA, new LSA, epoch before
// and after the bump) — and runSPF merge-walks the old and new Links
// (both sorted by neighbor) against the current table's labels:
//
//   - no usable edge changed, or inserted/cheapened edges beat no label:
//     the labels are still a fixed point realised by surviving paths, so
//     the same immutable table is re-stamped with the new epoch;
//   - inserted or cheapened usable edges beat a label: the path set only
//     grew, so the old labels are upper bounds; the heap is seeded from the
//     edge endpoints and the same relax loop continues from the old labels
//     (a first-hop-only improvement re-queues its node too, so
//     min-first-hop ties propagate);
//   - a removed or worsened usable edge x→y with dist[x]+cost == dist[y]
//     lay on the shortest-path DAG: the full run. Off the DAG it carried no
//     minimum, and removing it changes no label.
//
// The note is trusted only under a guard: the table's stamp equals the
// note's before-epoch and the state's epoch its after-epoch (so the table
// is the SPF of exactly the content the note starts from, and the LSDB
// exactly the content it ends at), the table universe comes out the same
// length, and no installed LSA ever broke the sorted-Links invariant.
// Anything else — two installs between SPFs, a hand-built LSA — takes the
// full run. The note is a statement about LSDB *contents*, like a cache
// entry, not about a timeline, and (lsdb, epoch, table, tableEpoch) are
// rewound or restored together; so it lives in the daemon, unjournaled,
// and is sound under MI rewind, FK restore and lockstep alike. Every path
// builds the table a from-scratch run would (FuzzSPFDelta holds them to
// the O(n²) scan this replaced), and the cache counters see the same
// requests, hits and misses as before.
//
// # Chunked tables
//
// A table is a spine of fixed chunks of chunkLen hops. Nearly every miss
// moves one label (the boot flood makes one more destination reachable per
// arriving LSA), so the build compares each chunk it computes with the
// installed table's chunk at the same index and reuses that chunk when the
// two are equal: a miss writes a new spine and the chunks that changed,
// not the whole table. Spines and chunks are never written once built, so
// clones, the side journal and the route cache share them. They are cut
// from per-daemon slabs that hand out only fresh cells, so a rewind or an
// eviction never recycles a chunk another table still holds. FuzzSPFDelta
// holds every build to maximal sharing and every installed table to the
// content it had when installed.
package ospf

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"defined/internal/journal"
	"defined/internal/msg"
	"defined/internal/routing/api"
	"defined/internal/routing/routecache"
	"defined/internal/vtime"
)

// Config tunes the daemon. The zero value selects the paper's stressed
// configuration: 1 s hellos and a 4 s dead interval.
type Config struct {
	// HelloInterval is the keepalive period (default 1 s).
	HelloInterval vtime.Duration
	// DeadInterval is how long without hellos an adjacency survives
	// (default 4 × HelloInterval).
	DeadInterval vtime.Duration
	// DomainBase is the first node id of this daemon's routing domain.
	// Id-indexed state (LSDB, routing table) is stored relative to it, so
	// per-daemon state scales with the domain size, not the topology
	// size — on a 10k-router hierarchical topology with per-AS contiguous
	// id blocks, each daemon's state stays AS-sized. LSAs originated below
	// the base are foreign-domain and ignored. Zero (the default) keeps
	// the flat id space of the evaluation topologies.
	DomainBase msg.NodeID
}

func (c *Config) fillDefaults() {
	if c.HelloInterval <= 0 {
		c.HelloInterval = vtime.Second
	}
	if c.DeadInterval <= 0 {
		c.DeadInterval = 4 * c.HelloInterval
	}
}

// LSA is a link-state advertisement: the set of links a router currently
// has up, with a per-origin sequence number. LSAs are immutable once
// created (they are shared across forwarding paths and rollback replays).
type LSA struct {
	Origin msg.NodeID
	Seq    uint64
	Links  []Adj // sorted by neighbor id
}

// Adj is one advertised adjacency.
type Adj struct {
	To   msg.NodeID
	Cost uint32
}

// PayloadEqual implements msg.PayloadEq on the rollback engine's
// lazy-cancellation path. Replays routinely regenerate floods of the very
// same (immutable, shared) *LSA, so the pointer shortcut usually decides
// without touching the links at all.
func (l *LSA) PayloadEqual(other any) bool {
	o, ok := other.(*LSA)
	if !ok {
		return false
	}
	if l == o {
		return true
	}
	if l.Origin != o.Origin || l.Seq != o.Seq || len(l.Links) != len(o.Links) {
		return false
	}
	for i := range l.Links {
		if l.Links[i] != o.Links[i] {
			return false
		}
	}
	return true
}

// hello is the keepalive payload.
type hello struct {
	From msg.NodeID
}

// PayloadEqual implements msg.PayloadEq.
func (h hello) PayloadEqual(other any) bool {
	o, ok := other.(hello)
	return ok && h == o
}

// Route is one computed routing-table entry, as the inspection methods
// report it.
type Route struct {
	Dest    msg.NodeID
	NextHop msg.NodeID
	Cost    uint32
}

// hop is one stored table cell: 8 bytes. A table is indexed by destination
// (domain base + index), so a Route per cell would spend a third of every
// chunk — the route cache keeps up to 64 tables per router — restating the
// index.
type hop struct {
	NextHop msg.NodeID // msg.None: unreachable
	Cost    uint32
}

// chunkLen is how many hops a chunk holds: 16 × 8 B = 128 B.
const chunkLen = 16

// chunk is chunkLen consecutive destinations' hops.
type chunk [chunkLen]hop

// table is an immutable routing table indexed by destination: a spine of
// chunks, chunk k holding destinations k·chunkLen to (k+1)·chunkLen − 1 (see
// "Chunked tables" above). The last chunk's cells past the table's length
// hold pastEnd, so the spine alone carries the length and a table value is
// one slice header.
type table []*chunk

// pastEnd fills the last chunk past the table's length: unreachable, like
// every msg.None cell, and told apart by a cost no such cell has (self and
// unreachable destinations cost 0).
var pastEnd = hop{NextHop: msg.None, Cost: inf}

// size is the table's length: the node-id universe it was built over (see
// spfFull). Only the last chunk holds pastEnd cells, and it holds at least
// one destination.
func (t table) size() int {
	n := len(t) * chunkLen
	for n > 0 && t.at(n-1) == pastEnd {
		n--
	}
	return n
}

// at returns destination index i's hop; past the table, an unreachable one.
func (t table) at(i int) hop {
	if i < 0 || i >= len(t)*chunkLen {
		return hop{NextHop: msg.None}
	}
	return t[i/chunkLen][i%chunkLen]
}

// state is the daemon's checkpointable state. Node ids are dense indices,
// so every collection is a slice indexed by node id: DEFINED-RB
// checkpoints before *every* speculative delivery, which makes Clone the
// hottest allocation site in the whole system — slice copies keep it to a
// handful of memmoves where map clones cost one allocation per bucket
// chain.
//
// Post-Init writes to these fields must go through the journaling setters
// below so MI rollback can rewind them.
//
//detlint:checkpointable
type state struct {
	lsdb      []*LSA       // by origin id relative to the domain base; nil = no LSA stored
	adjUp     []bool       // by neighbor slot (sorted-neighbor index): adjacency believed up
	lastHello []vtime.Time // by neighbor slot: last hello seen
	seq       uint64       // own LSA sequence
	// epoch is the topology epoch: a commutative content hash of the
	// LSDB's (origin, links) pairs, bumped by setLSDB only when an
	// installed LSA's links differ from the stored one's (the SPF input
	// changed). Journaled, so rewind un-bumps it.
	epoch uint64
	// table is replaced by runSPF, never written in place (neither its
	// spine nor its chunks), so clones share it; entries with NextHop ==
	// msg.None are unreachable. tableEpoch stamps the epoch table was
	// computed at (journaled with it): tableEpoch == epoch means the table
	// is current and a recompute is skipped outright.
	table      table
	tableEpoch uint64
	now        vtime.Time
	booted     bool // initial own-LSA flood performed
}

// ---- undo journal (MI checkpointing) ----------------------------------------

// undoKind tags one journaled mutation of the daemon state.
type undoKind uint8

const (
	undoLSDB      undoKind = iota // lsdb[idx], epoch = lsa, u64
	undoLSDBLen                   // lsdb shrinks back to length u64
	undoAdjUp                     // adjUp[idx] = b
	undoLastHello                 // lastHello[idx] = time u64
	undoSeq                       // seq = u64
	undoTable                     // table, tableEpoch = tables' newest, u64 (tables are immutable)
	undoNow                       // now = time u64
	undoBooted                    // booted = b
)

// undoRec is one compact undo entry: for slice-element writes it is a
// (slot, old-value) pair, so checkpoint cost scales with the bytes dirtied
// per delivery rather than with topology size. Entries live by value in
// the journal's reusable slice — no per-entry allocation — one to two per
// delivery, so a record is 24 bytes: one integer slot (counters, lengths
// and vtime.Times share it) and the one pointer-shaped old value. The one
// old value that is a slice header, the table, goes to the side journal
// Daemon.tables instead, so building a record never boxes. An undoTable
// record stands for exactly one side entry, in order: undoing it pops the
// newest, and JournalCompact drops as many of the oldest as it drops such
// records.
type undoRec struct {
	kind undoKind
	b    bool
	idx  int32
	u64  uint64
	lsa  *LSA
}

// applyUndo reverses one recorded mutation. A restored table is safe to
// reinstate as-is: tables are never written once built, and journal rewind
// is strictly LIFO.
func (s *state) applyUndo(u undoRec, d *Daemon) {
	switch u.kind {
	case undoLSDB:
		s.lsdb[u.idx] = u.lsa
		s.epoch = u.u64
	case undoLSDBLen:
		s.lsdb = s.lsdb[:u.u64]
	case undoAdjUp:
		s.adjUp[u.idx] = u.b
	case undoLastHello:
		s.lastHello[u.idx] = vtime.Time(u.u64)
	case undoSeq:
		s.seq = u.u64
	case undoTable:
		d.tables.Rewind(d.tables.Mark() - 1)
		s.tableEpoch = u.u64
	case undoNow:
		s.now = vtime.Time(u.u64)
	case undoBooted:
		s.booted = u.b
	}
}

// undoTable is the side journal's undo function.
func (s *state) undoTable(t table) { s.table = t }

// JournalEnable implements api.Journaled: from here on every state
// mutation records an undo entry so MI checkpoints are O(1) marks.
func (d *Daemon) JournalEnable() {
	d.j.Enable()
	d.tables.Enable()
}

// JournalMark implements api.Journaled.
func (d *Daemon) JournalMark() journal.Mark { return d.j.Mark() }

// JournalRewind implements api.Journaled.
func (d *Daemon) JournalRewind(m journal.Mark) { d.j.Rewind(m) }

// JournalCompact implements api.Journaled. The side journal compacts by
// count: one entry for each undoTable record leaving the main journal,
// which is walked here once, as it goes.
func (d *Daemon) JournalCompact(m journal.Mark) {
	if !d.j.Enabled() {
		return
	}
	var tables journal.Mark
	for p := d.j.Base(); p < m; p++ {
		if d.j.At(p).kind == undoTable {
			tables++
		}
	}
	d.tables.Compact(d.tables.Base() + tables)
	d.j.Compact(m)
}

// The journaling setters below are the only paths that mutate daemon state
// after Init; each records the old value before writing (no-op writes are
// skipped: undoing them is equally a no-op, and the entry is pure cost).

func (d *Daemon) setLSDB(i msg.NodeID, lsa *LSA) {
	n := d.rel(i)
	if n >= len(d.st.lsdb) {
		d.j.Record(undoRec{kind: undoLSDBLen, u64: uint64(len(d.st.lsdb))})
		d.st.lsdb = grown(d.st.lsdb, n)
	}
	old := d.st.lsdb[n]
	// One record restores the slot and the epoch it may move, so an MI
	// rewind un-bumps the epoch and its cached table is valid again.
	d.j.Record(undoRec{kind: undoLSDB, idx: int32(n), lsa: old, u64: d.st.epoch})
	d.st.lsdb[n] = lsa
	// Epoch-bump contract: only an *effective* mutation — the origin's
	// advertised links changed — moves the topology epoch (by a commutative
	// content delta). A refreshed LSA with identical links (higher Seq)
	// leaves the SPF input, and so the epoch and any cached table, untouched.
	if old == nil || !slices.Equal(old.Links, lsa.Links) {
		before := d.st.epoch
		d.st.epoch += lsaContentHash(i, lsa) - lsaContentHash(i, old)
		d.delta = lsdbDelta{origin: i, old: old, lsa: lsa, before: before, after: d.st.epoch}
	}
	// costTo and spfDelta rely on Links being strictly ascending by neighbor
	// id. A hand-built LSA that is not switches this daemon to linear scans
	// and full SPF runs for good (sticky, hence safe under rewind).
	for k := 1; k < len(lsa.Links) && !d.unsorted; k++ {
		d.unsorted = lsa.Links[k-1].To >= lsa.Links[k].To
	}
}

// lsdbDelta is setLSDB's note to the next runSPF: the LSDB content with
// epoch after is the content with epoch before with origin's LSA swapped
// from old (nil: none stored) to lsa. See "Incremental SPF" above.
type lsdbDelta struct {
	origin        msg.NodeID
	old, lsa      *LSA
	before, after uint64
}

// lsaContentHash fingerprints the SPF-relevant content one stored LSA
// contributes: its origin and link set (Seq deliberately excluded). A nil
// LSA contributes zero, so installing, replacing and (on rewind) removing
// an origin all move the epoch by content-derived deltas.
func lsaContentHash(origin msg.NodeID, l *LSA) uint64 {
	if l == nil {
		return 0
	}
	h := routecache.Hash()
	h = routecache.HashUint64(h, uint64(origin))
	h = routecache.HashUint64(h, uint64(len(l.Links)))
	for _, adj := range l.Links {
		h = routecache.HashUint64(h, uint64(adj.To))
		h = routecache.HashUint64(h, uint64(adj.Cost))
	}
	return routecache.Finish(h)
}

// setAdjUp and setLastHello take neighbor *slots* (sorted-neighbor index),
// so adjacency state is degree-sized, not id-space-sized.

func (d *Daemon) setAdjUp(slot int, v bool) {
	if d.st.adjUp[slot] == v {
		return
	}
	d.j.Record(undoRec{kind: undoAdjUp, idx: int32(slot), b: d.st.adjUp[slot]})
	d.st.adjUp[slot] = v
}

func (d *Daemon) setLastHello(slot int, t vtime.Time) {
	if d.st.lastHello[slot] == t {
		return
	}
	d.j.Record(undoRec{kind: undoLastHello, idx: int32(slot), u64: uint64(d.st.lastHello[slot])})
	d.st.lastHello[slot] = t
}

func (d *Daemon) setSeq(v uint64) {
	d.j.Record(undoRec{kind: undoSeq, u64: d.st.seq})
	d.st.seq = v
}

// setTable installs a routing table stamped with the current epoch. Table
// (in its side journal) and stamp are journaled as one entry, so a rewind
// restores the exact pre-bump (table, tableEpoch) pair with the epoch itself.
func (d *Daemon) setTable(t table) {
	d.tables.Record(d.st.table)
	d.j.Record(undoRec{kind: undoTable, u64: d.st.tableEpoch})
	d.st.table = t
	d.st.tableEpoch = d.st.epoch
}

func (d *Daemon) setNow(t vtime.Time) {
	if d.st.now == t {
		return
	}
	d.j.Record(undoRec{kind: undoNow, u64: uint64(d.st.now)})
	d.st.now = t
}

func (d *Daemon) setBooted(v bool) {
	d.j.Record(undoRec{kind: undoBooted, b: d.st.booted})
	d.st.booted = v
}

// grown returns s extended with zero values so index n is addressable.
func grown[T any](s []T, n int) []T {
	if n < len(s) {
		return s
	}
	return append(s, make([]T, n+1-len(s))...)
}

// Clone implements api.State.
func (s *state) Clone() api.State { return s.CloneInto(nil) }

// CloneInto implements api.Recyclable: the slices are copied into dst's
// own arrays, so a checkpoint into a recycled state allocates nothing once
// its arrays have grown to the live state's lengths.
func (s *state) CloneInto(dst api.State) api.State {
	d, _ := dst.(*state)
	if d == nil {
		d = &state{}
	}
	*d = state{
		lsdb:       append(d.lsdb[:0], s.lsdb...), // LSAs are immutable: share
		adjUp:      append(d.adjUp[:0], s.adjUp...),
		lastHello:  append(d.lastHello[:0], s.lastHello...),
		seq:        s.seq,
		epoch:      s.epoch,
		table:      s.table, // spine and chunks immutable once built: share
		tableEpoch: s.tableEpoch,
		now:        s.now,
		booted:     s.booted,
	}
	return d
}

// Daemon is one OSPF instance.
type Daemon struct {
	cfg       Config
	self      msg.NodeID
	base      msg.NodeID // cfg.DomainBase: id-relative storage origin
	neighbors []api.Neighbor
	helloOut  any // hello{From: self}, boxed once: a timer batch sends one per neighbor
	st        *state

	// SPF scratch space, reused across runs (not part of the checkpointable
	// state: SPF output depends only on the LSDB): per-node (cost, first
	// hop) labels, the in-heap flag and the min-heap of dist<<32|index keys.
	spfDist   []uint32
	spfVia    []msg.NodeID
	spfQueued []bool
	spfHeap   []uint64
	delta     lsdbDelta
	unsorted  bool // some installed LSA broke the sorted-Links invariant

	// Table storage (see build): chunks are cut from a slab of one table's
	// worth, spines from a slab of spineSlabTables tables' worth.
	chunkSlab []chunk
	spineSlab []*chunk

	// j is the undo journal backing MI checkpoints, tables its side
	// journal for old tables (see undoRec); disabled (and empty) unless the
	// substrate calls JournalEnable.
	j      *journal.Log[undoRec]
	tables *journal.Log[table]

	// cache memoizes epoch → routing table (api.RecomputeCached). It is
	// daemon-level, not checkpointable state: entries are immutable shared
	// tables keyed by content epoch, valid in every timeline, so rewinds
	// and clones leave it in place.
	cache routecache.Ring[uint64, table]

	// outBuf is the reusable output buffer: handlers build their result
	// in it, so steady-state flooding allocates no fresh slices. Returned
	// slices are valid until the next handler call (api.Application).
	outBuf []msg.Out
}

// New creates a daemon with the given configuration.
func New(cfg Config) *Daemon {
	cfg.fillDefaults()
	d := &Daemon{cfg: cfg, base: cfg.DomainBase}
	d.j = journal.New(func(u undoRec) { d.st.applyUndo(u, d) })
	d.tables = journal.New(func(t table) { d.st.undoTable(t) })
	return d
}

// rel maps a node id into domain-relative storage coordinates; negative
// means the id is below the domain base (foreign domain).
func (d *Daemon) rel(i msg.NodeID) int { return int(i) - int(d.base) }

// nbSlot returns peer's index in the sorted neighbor list, or -1. Binary
// search over the node's degree.
func (d *Daemon) nbSlot(peer msg.NodeID) int {
	lo, hi := 0, len(d.neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.neighbors[mid].ID < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.neighbors) && d.neighbors[lo].ID == peer {
		return lo
	}
	return -1
}

var (
	_ api.Application     = (*Daemon)(nil)
	_ api.Journaled       = (*Daemon)(nil)
	_ api.RecomputeCached = (*Daemon)(nil)
	_ api.Recyclable      = (*state)(nil)
)

// RouteCacheStats implements api.RecomputeCached.
func (d *Daemon) RouteCacheStats() api.RouteCacheStats { return d.cache.Stats() }

// SetRouteCaching implements api.RecomputeCached.
func (d *Daemon) SetRouteCaching(on bool) { d.cache.SetEnabled(on) }

// Init implements api.Application.
func (d *Daemon) Init(self msg.NodeID, neighbors []api.Neighbor) {
	if self < d.base {
		panic(fmt.Sprintf("ospf: node %d below its domain base %d", self, d.base))
	}
	d.self = self
	d.helloOut = hello{From: self}
	d.neighbors = append([]api.Neighbor(nil), neighbors...)
	sort.Slice(d.neighbors, func(i, j int) bool { return d.neighbors[i].ID < d.neighbors[j].ID })
	d.st = &state{
		adjUp:     make([]bool, len(d.neighbors)),
		lastHello: make([]vtime.Time, len(d.neighbors)),
	}
	for slot := range d.neighbors {
		d.st.adjUp[slot] = true
	}
	d.originate()
	d.runSPF()
}

// originate installs a fresh own-LSA reflecting current adjacencies.
func (d *Daemon) originate() *LSA {
	d.setSeq(d.st.seq + 1)
	var links []Adj
	for slot, nb := range d.neighbors {
		if d.st.adjUp[slot] {
			links = append(links, Adj{To: nb.ID, Cost: nb.Cost})
		}
	}
	lsa := &LSA{Origin: d.self, Seq: d.st.seq, Links: links}
	d.setLSDB(d.self, lsa)
	return lsa
}

// ownLinks returns the adjacency list of the LSA the daemon currently
// advertises for itself, or nil before the first origination.
func (d *Daemon) ownLinks() []Adj {
	if own := d.lsaOf(d.self); own != nil {
		return own.Links
	}
	return nil
}

// appendFlood appends the messages that flood lsa to all up adjacencies
// except exclude.
func (d *Daemon) appendFlood(outs []msg.Out, lsa *LSA, exclude msg.NodeID) []msg.Out {
	for slot, nb := range d.neighbors {
		if nb.ID == exclude || !d.st.adjUp[slot] {
			continue
		}
		outs = append(outs, msg.Out{To: nb.ID, Payload: lsa})
	}
	return outs
}

// HandleMessage implements api.Application.
func (d *Daemon) HandleMessage(m *msg.Message) []msg.Out {
	switch p := m.Payload.(type) {
	case *LSA:
		return d.onLSA(p, m.From)
	case hello:
		slot := d.nbSlot(p.From)
		if slot < 0 {
			return nil // hello from a non-neighbor: not our adjacency
		}
		d.setLastHello(slot, d.st.now)
		if !d.st.adjUp[slot] {
			// Adjacency resurrects on hello (simplified exchange: send
			// our full LSDB so the peer resynchronizes).
			d.setAdjUp(slot, true)
			lsa := d.originate()
			outs := d.appendFlood(d.outBuf[:0], lsa, msg.None)
			outs = d.appendDatabase(outs, p.From)
			d.outBuf = outs[:0]
			d.runSPF()
			return outs
		}
		return nil
	default:
		return nil
	}
}

// appendDatabase appends every stored LSA addressed to one neighbor
// (simplified database exchange on adjacency formation). The LSDB slice is
// ordered by origin id, so iteration is already deterministic.
func (d *Daemon) appendDatabase(outs []msg.Out, to msg.NodeID) []msg.Out {
	for _, lsa := range d.st.lsdb {
		if lsa != nil {
			outs = append(outs, msg.Out{To: to, Payload: lsa})
		}
	}
	return outs
}

// onLSA applies a received LSA: newer sequence wins, and a newer LSA floods
// on at once to every up adjacency but the one it came from.
func (d *Daemon) onLSA(lsa *LSA, from msg.NodeID) []msg.Out {
	if d.rel(lsa.Origin) < 0 {
		return nil // foreign-domain origin: outside our area, neither stored nor flooded
	}
	if lsa.Origin == d.self {
		// A neighbor returned one of our own LSAs. A fresh incarnation
		// after a crash-restart boots with sequence 1, below the pre-crash
		// sequence still stored network-wide; installing the returned copy
		// would advertise dead adjacencies in our name. Outrun it instead
		// (OSPF's rule for receiving a stale self-originated LSA): jump the
		// sequence past the copy and flood a fresh origination. The
		// equal-sequence case matters too: the restarted incarnation's
		// counter can catch back up to exactly the pre-crash sequence via
		// its own re-originations, leaving two different LSAs in the network
		// under the same (origin, seq) — neighbors then reject our fresh LSA
		// as "not newer". Outrun when the equal-sequence copy's content
		// differs from what we currently advertise. Fault-free this branch
		// never fires: every circulating self-LSA carries a sequence we
		// issued with exactly the content we issued it with, so the strict >
		// cannot hold and the equal-sequence copy is content-identical.
		if lsa.Seq > d.st.seq || (lsa.Seq == d.st.seq && !slices.Equal(lsa.Links, d.ownLinks())) {
			d.setSeq(lsa.Seq) // originate bumps one past the stale copy
			fresh := d.originate()
			d.runSPF()
			outs := d.appendFlood(d.outBuf[:0], fresh, msg.None)
			d.outBuf = outs[:0]
			return outs
		}
		return nil
	}
	if cur := d.lsaOf(lsa.Origin); cur != nil && cur.Seq >= lsa.Seq {
		return nil // stale or duplicate
	}
	d.setLSDB(lsa.Origin, lsa)
	d.runSPF()
	outs := d.appendFlood(d.outBuf[:0], lsa, from)
	d.outBuf = outs[:0]
	return outs
}

// HandleTimer implements api.Application: initial database flood, hello
// emission and dead-interval expiry.
func (d *Daemon) HandleTimer(now vtime.Time) []msg.Out {
	d.setNow(now)
	outs := d.outBuf[:0]

	// Boot: flood the own LSA on the first timer batch so the network
	// synchronizes LSDBs (stands in for OSPF's initial database
	// exchange on adjacency formation).
	if !d.st.booted {
		d.setBooted(true)
		for slot := range d.neighbors {
			d.setLastHello(slot, now)
		}
		outs = d.appendFlood(outs, d.lsaOf(d.self), msg.None)
	}

	// Hellos on the hello interval grid.
	if int64(now)%int64(d.cfg.HelloInterval) == 0 {
		for _, nb := range d.neighbors {
			outs = append(outs, msg.Out{To: nb.ID, Payload: d.helloOut})
		}
	}

	// Dead-interval expiry.
	changed := false
	for slot := range d.neighbors {
		if d.st.adjUp[slot] && now.Sub(d.st.lastHello[slot]) > d.cfg.DeadInterval {
			d.setAdjUp(slot, false)
			changed = true
		}
	}
	if changed {
		lsa := d.originate()
		outs = d.appendFlood(outs, lsa, msg.None)
		d.runSPF()
	}
	d.outBuf = outs[:0]
	return outs
}

// HandleExternal implements api.Application: interface state changes from
// the substrate (failure detection in the paper's testbed), and neighbor
// restart notifications from the crash-fault layer.
func (d *Daemon) HandleExternal(ev api.ExternalEvent) []msg.Out {
	if pr, ok := ev.(api.PeerRestart); ok {
		return d.onPeerRestart(pr.Peer)
	}
	lc, ok := ev.(api.LinkChange)
	if !ok {
		return nil
	}
	slot := d.nbSlot(lc.Peer)
	if slot < 0 {
		return nil
	}
	if d.st.adjUp[slot] == lc.Up {
		return nil
	}
	d.setAdjUp(slot, lc.Up)
	if lc.Up {
		d.setLastHello(slot, d.st.now)
	}
	lsa := d.originate()
	outs := d.appendFlood(d.outBuf[:0], lsa, msg.None)
	if lc.Up {
		outs = d.appendDatabase(outs, lc.Peer)
	}
	d.outBuf = outs[:0]
	d.runSPF()
	return outs
}

// onPeerRestart re-syncs a neighbor that rebooted with empty state: push
// the full LSDB immediately (the fresh daemon cannot know what it missed,
// and the copy of its own pre-crash LSA is what lets it outrun its stale
// sequence number — see onLSA) instead of waiting for its hellos to
// resurrect the adjacency a hello interval later. If the dead interval
// already expired the adjacency, this is the same resurrection the hello
// path performs; if the restart was fast enough that it never expired,
// only the database push is needed.
func (d *Daemon) onPeerRestart(peer msg.NodeID) []msg.Out {
	slot := d.nbSlot(peer)
	if slot < 0 {
		return nil
	}
	d.setLastHello(slot, d.st.now)
	if !d.st.adjUp[slot] {
		d.setAdjUp(slot, true)
		lsa := d.originate()
		outs := d.appendFlood(d.outBuf[:0], lsa, msg.None)
		outs = d.appendDatabase(outs, peer)
		d.outBuf = outs[:0]
		d.runSPF()
		return outs
	}
	outs := d.appendDatabase(d.outBuf[:0], peer)
	d.outBuf = outs[:0]
	return outs
}

// State implements api.Application.
func (d *Daemon) State() api.State { return d.st }

// Restore implements api.Application.
func (d *Daemon) Restore(st api.State) { d.st = st.(*state) }

// ---- SPF --------------------------------------------------------------------

// inf labels an unreachable node (and an absent link in spfDelta).
const inf = ^uint32(0)

// runSPF recomputes the routing table from the LSDB. A link is usable only
// when both endpoints advertise it (bidirectional check, as OSPF requires).
// The epoch cache answers requests whose SPF input was seen before: a
// request at the table's own epoch is skipped outright, a request at any
// other already-seen epoch reuses the memoized table with zero allocation.
// A miss costs what the LSDB delta costs when setLSDB's note covers it
// (spfDelta) and one heap Dijkstra otherwise (spfFull). All paths are
// observationally invisible (the table is bit-identical to what a
// from-scratch run would build). Scratch lives in the daemon; a miss that
// builds writes a fresh spine and the chunks whose content changed, both
// cut from the daemon's slabs (see build).
func (d *Daemon) runSPF() {
	s := d.st
	note := d.delta
	d.delta = lsdbDelta{}
	if d.cache.Enabled() {
		if s.table != nil && s.tableEpoch == s.epoch {
			d.cache.Skip()
			return
		}
		if t, ok := d.cache.Lookup(s.epoch); ok {
			d.setTable(t)
			return
		}
	}
	table := d.spfDelta(note)
	if table == nil {
		table = d.spfFull()
	}
	d.setTable(table)
	d.cache.Insert(s.epoch, table)
}

// spfFull runs Dijkstra from scratch.
func (d *Daemon) spfFull() table {
	s := d.st
	// The node-id universe in domain-relative coordinates: own id, every
	// LSA origin, every advertised adjacency target. With a domain base
	// set, n is the domain's id-block span, not the topology size.
	n := d.rel(d.self) + 1
	if len(s.lsdb) > n {
		n = len(s.lsdb)
	}
	for _, lsa := range s.lsdb {
		if lsa == nil {
			continue
		}
		for _, adj := range lsa.Links {
			if r := d.rel(adj.To) + 1; r > n {
				n = r
			}
		}
	}
	d.spfScratch(n)
	for i := 0; i < n; i++ {
		d.spfDist[i], d.spfVia[i] = inf, msg.None
	}
	d.improve(d.rel(d.self), 0, msg.None)
	return d.relax(n)
}

// spfScratch sizes the label scratch for an n-node run and empties the heap.
func (d *Daemon) spfScratch(n int) {
	d.spfDist = grown(d.spfDist[:0], n-1)
	d.spfVia = grown(d.spfVia[:0], n-1)
	d.spfQueued = grown(d.spfQueued[:0], n-1)
	clear(d.spfQueued)
	d.spfHeap = d.spfHeap[:0]
}

// spfDelta computes the table for the current LSDB from the current table
// when nt — one origin's LSA swapped — is all that separates the two; nil
// sends the caller to spfFull (see "Incremental SPF" in the package
// comment). Returns the same immutable table when no label moves.
func (d *Daemon) spfDelta(nt lsdbDelta) table {
	s := d.st
	n := s.table.size()
	if nt.lsa == nil || d.unsorted || n == 0 || s.tableEpoch != nt.before || s.epoch != nt.after {
		return nil
	}
	var oldL []Adj
	if nt.old != nil {
		oldL = nt.old.Links
	}
	newL := nt.lsa.Links
	// The table universe (see spfFull) must come out at n again: nothing
	// may reach past it, and something other than the replaced links must
	// still reach it — every other LSA's links were inside it already.
	span := func(l []Adj) int {
		if len(l) == 0 {
			return 0
		}
		return d.rel(l[len(l)-1].To) + 1
	}
	if hi := span(newL); hi > n || len(s.lsdb) > n || (hi < n && len(s.lsdb) < n && span(oldL) == n) {
		return nil
	}
	d.spfScratch(n)
	dist, via := d.spfDist, d.spfVia
	for k, c := range s.table {
		lo := k * chunkLen
		for j, r := range c[:min(chunkLen, n-lo)] {
			dist[lo+j], via[lo+j] = r.Cost, r.NextHop
			if r.NextHop == msg.None {
				dist[lo+j] = inf
			}
		}
	}
	dist[d.rel(d.self)] = 0
	x := d.rel(nt.origin)
	dx := dist[x] // the DAG tests need x's old cost; seeds below may lower it
	for i, j := 0, 0; i < len(oldL) || j < len(newL); {
		// The next neighbor in id order, with x's cost toward it before
		// (co) and after (cn); inf: not advertised.
		var to msg.NodeID
		co, cn := inf, inf
		inOld := j == len(newL) || (i < len(oldL) && oldL[i].To <= newL[j].To)
		if inOld {
			to, co = oldL[i].To, oldL[i].Cost
			i++
		}
		if j < len(newL) && (!inOld || newL[j].To == to) {
			to, cn = newL[j].To, newL[j].Cost
			j++
		}
		y := d.rel(to)
		if y < 0 || co == cn {
			continue
		}
		if y == x {
			return nil // self-loop advert: both ends of the edge changed
		}
		back, ok := d.costTo(d.lsaOf(to), nt.origin)
		if !ok {
			continue // y does not advertise x: unusable before and after
		}
		// x→y went co→cn; y→x (cost back) exists iff x advertises y.
		dy := dist[y]
		if (cn > co && dx != inf && dx+co == dy) || (cn == inf && dy != inf && dy+back == dx) {
			return nil // a shortest path ran over the edge
		}
		if cn < co && dist[x] != inf {
			d.improve(y, dist[x]+cn, d.hopVia(x, to))
		}
		if co == inf && dy != inf {
			d.improve(x, dy+back, d.hopVia(y, nt.origin))
		}
	}
	if len(d.spfHeap) == 0 {
		return s.table
	}
	return d.relax(n)
}

// improve lowers node y's label to (cost, first hop) if that is
// lexicographically smaller, and queues y for relaxation: always on a
// cheaper cost, and on a first-hop-only improvement unless y's key is
// still in the heap — so min-first-hop ties propagate from old labels too.
func (d *Daemon) improve(y int, c uint32, fh msg.NodeID) {
	old := d.spfDist[y]
	if c > old || (c == old && fh >= d.spfVia[y]) {
		return
	}
	d.spfDist[y], d.spfVia[y] = c, fh
	if c == old && d.spfQueued[y] {
		return
	}
	d.spfQueued[y] = true
	// Sift the packed key up: smallest cost first, ties to the smallest id.
	h, key := append(d.spfHeap, 0), uint64(c)<<32|uint64(y)
	i := len(h) - 1
	for ; i > 0 && h[(i-1)/2] > key; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i] = key
	d.spfHeap = h
}

// hopVia is the first hop of a path leaving node u for its neighbor to:
// u's own first hop, or to itself when u is this router.
func (d *Daemon) hopVia(u int, to msg.NodeID) msg.NodeID {
	if u == d.rel(d.self) {
		return to
	}
	return d.spfVia[u]
}

// relax drains the heap — label-correcting Dijkstra over the usable links,
// serving both the full run (seeded with self) and the delta continuation
// (seeded with the changed edges' endpoints) — and builds the table.
func (d *Daemon) relax(n int) table {
	for len(d.spfHeap) > 0 {
		// Pop the smallest key; sift the last one down from the root.
		h := d.spfHeap
		key, last := h[0], h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; len(h) > 0; {
			c := 2*i + 1
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if c >= len(h) || h[c] >= last {
				h[i] = last
				break
			}
			h[i] = h[c]
			i = c
		}
		d.spfHeap = h
		x, dx := int(uint32(key)), uint32(key>>32)
		if !d.spfQueued[x] || dx != d.spfDist[x] {
			continue // superseded by a later, smaller key
		}
		d.spfQueued[x] = false
		xid := d.base + msg.NodeID(x)
		lsa := d.lsaOf(xid)
		if lsa == nil {
			continue
		}
		for _, adj := range lsa.Links {
			y, c, fh := d.rel(adj.To), dx+adj.Cost, d.hopVia(x, adj.To)
			// Most edges beat no label: test that before usability.
			if y < 0 || c > d.spfDist[y] || (c == d.spfDist[y] && fh >= d.spfVia[y]) {
				continue
			}
			if _, ok := d.costTo(d.lsaOf(adj.To), xid); ok {
				d.improve(y, c, fh)
			}
		}
	}
	return d.build(n)
}

// spineSlabTables is how many spines one spine slab holds. A slab lives as
// long as any of its spines, and its dead spines keep their chunks (and
// those chunks' slabs) alive with it: at 8 the Sprintlink workloads' live
// heap rose 1.8 % over the flat tables, at 4 it rises 0.5–0.9 %, and 2
// would trade that for an allocation every other build.
const spineSlabTables = 4

// build packs the n labels into a table. Each chunk is computed in full and
// compared with the installed table's chunk at the same index; an equal one
// is reused, so the new spine shares every chunk whose labels did not move
// and only the others are written, into fresh slab cells.
func (d *Daemon) build(n int) table {
	self, old := d.rel(d.self), d.st.table
	k := (n + chunkLen - 1) / chunkLen
	if len(d.spineSlab) < k {
		d.spineSlab = make([]*chunk, spineSlabTables*k)
	}
	t := table(d.spineSlab[:k:k])
	d.spineSlab = d.spineSlab[k:]
	for ci := range t {
		var c chunk
		for j := range c {
			switch i := ci*chunkLen + j; {
			case i >= n:
				c[j] = pastEnd
			case i == self || d.spfDist[i] == inf:
				c[j] = hop{NextHop: msg.None}
			default:
				c[j] = hop{NextHop: d.spfVia[i], Cost: d.spfDist[i]}
			}
		}
		if ci < len(old) && *old[ci] == c {
			t[ci] = old[ci]
			continue
		}
		if len(d.chunkSlab) == 0 {
			d.chunkSlab = make([]chunk, k)
		}
		t[ci] = &d.chunkSlab[0]
		*t[ci] = c
		d.chunkSlab = d.chunkSlab[1:]
	}
	return t
}

// costTo returns the cost l (nil: no LSA) advertises toward to, if any: a
// binary search over the sorted Links, or a linear scan once an installed
// LSA has broken that invariant.
func (d *Daemon) costTo(l *LSA, to msg.NodeID) (uint32, bool) {
	if l == nil {
		return 0, false
	}
	links := l.Links
	if !d.unsorted {
		lo, hi := 0, len(links)
		for lo < hi {
			if mid := (lo + hi) / 2; links[mid].To < to {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		links = links[lo:min(lo+1, len(links))]
	}
	for _, adj := range links {
		if adj.To == to {
			return adj.Cost, true
		}
	}
	return 0, false
}

// lsaOf returns the stored LSA for origin n, or nil.
func (d *Daemon) lsaOf(n msg.NodeID) *LSA {
	r := d.rel(n)
	if r < 0 || r >= len(d.st.lsdb) {
		return nil
	}
	return d.st.lsdb[r]
}

// ---- inspection --------------------------------------------------------------

// RoutingTable returns a copy of the current routing table.
func (d *Daemon) RoutingTable() map[msg.NodeID]Route {
	out := make(map[msg.NodeID]Route, d.st.table.size())
	for k, c := range d.st.table {
		for j, h := range c {
			if h.NextHop != msg.None {
				dest := d.base + msg.NodeID(k*chunkLen+j)
				out[dest] = Route{Dest: dest, NextHop: h.NextHop, Cost: h.Cost}
			}
		}
	}
	return out
}

// Reachable reports whether dest is in the routing table.
func (d *Daemon) Reachable(dest msg.NodeID) bool {
	return d.NextHop(dest) != msg.None
}

// NextHop returns the first hop toward dest (msg.None if unreachable).
func (d *Daemon) NextHop(dest msg.NodeID) msg.NodeID {
	return d.st.table.at(d.rel(dest)).NextHop
}

// DumpTable renders the routing table sorted by destination (debugger).
// Chunks and their cells are indexed by destination, so walking the spine
// in order visits destinations in order.
func (d *Daemon) DumpTable() string {
	var out strings.Builder
	for k, c := range d.st.table {
		for j, h := range c {
			if h.NextHop == msg.None {
				continue
			}
			fmt.Fprintf(&out, "dest %d via %d cost %d\n", d.base+msg.NodeID(k*chunkLen+j), h.NextHop, h.Cost)
		}
	}
	return out.String()
}
