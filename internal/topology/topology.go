// Package topology provides the network graphs the evaluation runs on:
// Rocketfuel-like PoP-level ISP topologies (Sprintlink, Ebone, Level3) and
// a BRITE-like preferential-attachment generator for the scalability sweeps
// (paper §5.1, §5.3).
//
// The original Rocketfuel adjacencies are not redistributable, so the named
// topologies here are synthetic graphs with the same node counts and a
// comparable degree/delay character (geographic placement, Waxman-style
// extra edges over a spanning backbone). DESIGN.md records the
// substitution; only scale and delay diversity are load-bearing for the
// reproduced figures.
package topology

import (
	"fmt"
	"math"
	"slices"

	"defined/internal/rng"
	"defined/internal/vtime"
)

// Link is an undirected edge between nodes A and B with a mean propagation
// delay and a jitter scale (standard deviation of the per-packet delay
// noise the simulator adds).
type Link struct {
	A, B   int
	Delay  vtime.Duration
	Jitter vtime.Duration
}

// Graph is an undirected multigraph-free network topology. Nodes are dense
// indices 0..N-1.
//
// Adjacency is one table in compressed-sparse-row form, built once by New:
// node i's slots are off[i]..off[i+1], and slot s joins i to neighbor
// nbr[s] over Links[link[s]]. Each row is sorted by neighbor, so a slot's
// position in its row (what Slot returns) is the neighbor's rank among
// i's neighbors. Every per-link lookup — the simulator's link state and
// FIFO clamp, the sender's d_i hop and link sequence, the lookahead bank —
// is a binary search over one row: no map is read on a send or delivery.
type Graph struct {
	Name  string
	N     int
	Links []Link

	off  []int // node → first slot of its row; off[N] == 2·len(Links)
	nbr  []int // slot → neighbor
	link []int // slot → index into Links

	// propBound, when positive, is a generator-supplied upper bound on
	// MaxPropagation. Exact all-pairs computation is O(V·E·logV) — fine at
	// evaluation scale, prohibitive at the 10k–100k-router hierarchical
	// scale, where the generator already knows a 2-approximation of the
	// diameter and presets it.
	propBound vtime.Duration
}

// New assembles a graph from an explicit link list. Self, out-of-range,
// non-positive-delay and duplicate links (in either direction) are
// rejected.
func New(name string, n int, links []Link) (*Graph, error) {
	g := &Graph{Name: name, N: n, Links: links, off: make([]int, n+1)}
	for _, l := range links {
		if l.A == l.B {
			return nil, fmt.Errorf("topology %s: self link at node %d", name, l.A)
		}
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return nil, fmt.Errorf("topology %s: link %d-%d out of range", name, l.A, l.B)
		}
		if l.Delay <= 0 {
			return nil, fmt.Errorf("topology %s: non-positive delay on link %d-%d", name, l.A, l.B)
		}
		g.off[l.A+1]++
		g.off[l.B+1]++
	}
	for i := range n {
		g.off[i+1] += g.off[i]
	}
	// Two counting passes order every row without a comparison sort: bucket
	// the links by end, then walk the buckets in node order and append each
	// link to its far end's row, which so receives its neighbors in
	// increasing order. A duplicate, either way round, is then the same
	// neighbor twice in a row.
	byEnd, next := make([]int, 2*len(links)), slices.Clone(g.off)
	for i, l := range links {
		byEnd[next[l.A]], byEnd[next[l.B]] = i, i
		next[l.A]++
		next[l.B]++
	}
	copy(next, g.off)
	g.nbr, g.link = make([]int, len(byEnd)), make([]int, len(byEnd))
	for v := range n {
		for _, i := range byEnd[g.off[v]:g.off[v+1]] {
			u := links[i].A + links[i].B - v // the far end
			if s := next[u]; s > g.off[u] && g.nbr[s-1] == v {
				return nil, fmt.Errorf("topology %s: duplicate link %d-%d", name, u, v)
			}
			g.nbr[next[u]], g.link[next[u]] = v, i
			next[u]++
		}
	}
	return g, nil
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Neighbors returns node i's row of the adjacency table: its neighbors,
// sorted by id. The slice is a view capped at the row's end (appending to
// it copies), and its elements must not be modified.
func (g *Graph) Neighbors(i int) []int { return g.nbr[g.off[i]:g.off[i+1]:g.off[i+1]] }

// Incident returns the indices into Links of node i's links, slot for slot
// with Neighbors(i): Incident(i)[k] joins i and Neighbors(i)[k]. Like
// Neighbors it is a capped view whose elements must not be modified.
func (g *Graph) Incident(i int) []int { return g.link[g.off[i]:g.off[i+1]:g.off[i+1]] }

// Slot returns b's position in a's row — the k with Neighbors(a)[k] == b —
// or -1 when a and b are not joined (or a is not a node). It binary-searches
// the row, O(log degree).
func (g *Graph) Slot(a, b int) int {
	if uint(a) >= uint(g.N) {
		return -1
	}
	if k, ok := slices.BinarySearch(g.Neighbors(a), b); ok {
		return k
	}
	return -1
}

// LinkBetween returns the link joining a and b, and whether it exists.
func (g *Graph) LinkBetween(a, b int) (Link, bool) {
	idx := g.LinkIndex(a, b)
	if idx < 0 {
		return Link{}, false
	}
	return g.Links[idx], true
}

// LinkIndex returns the index into Links of the a-b link, or -1.
func (g *Graph) LinkIndex(a, b int) int {
	k := g.Slot(a, b)
	if k < 0 {
		return -1
	}
	return g.link[g.off[a]+k]
}

// Degree returns the number of links incident to node i.
func (g *Graph) Degree(i int) int { return g.off[i+1] - g.off[i] }

// Connected reports whether the graph is connected (N==0 counts as
// connected).
func (g *Graph) Connected() bool {
	if g.N == 0 {
		return true
	}
	seen := make([]bool, g.N)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N
}

// ShortestDelays computes single-source shortest path delays from src over
// link mean delays. Unreachable nodes get -1.
func (g *Graph) ShortestDelays(src int) []vtime.Duration {
	return ShortestPaths(g, src, func(l Link) vtime.Duration { return l.Delay }, nil)
}

// ShortestPaths is Dijkstra from src: each link weighs weight(l), and the
// hop u→v is taken only where keep(u, v) admits it (nil admits every hop).
// Unreachable nodes get -1.
//
// Extraction order never changes the final distances, so the binary-heap
// frontier here produces bit-identical results to a linear scan while
// scaling to the hierarchical 10k–100k-router graphs.
func ShortestPaths[W ~int64](g *Graph, src int, weight func(Link) W, keep func(u, v int) bool) []W {
	inf := W(math.MaxInt64)
	dist := make([]W, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	visited := make([]bool, g.N)

	type frontier struct {
		d W
		n int
	}
	heap := make([]frontier, 0, g.N)
	push := func(f frontier) {
		heap = append(heap, f)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() frontier {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && heap[l].d < heap[small].d {
				small = l
			}
			if r < len(heap) && heap[r].d < heap[small].d {
				small = r
			}
			if small == i {
				break
			}
			heap[small], heap[i] = heap[i], heap[small]
			i = small
		}
		return top
	}

	push(frontier{0, src})
	for len(heap) > 0 {
		f := pop()
		if visited[f.n] {
			continue
		}
		visited[f.n] = true
		for s := g.off[f.n]; s < g.off[f.n+1]; s++ {
			v := g.nbr[s]
			if keep != nil && !keep(f.n, v) {
				continue
			}
			if nd := dist[f.n] + weight(g.Links[g.link[s]]); nd < dist[v] {
				dist[v] = nd
				push(frontier{nd, v})
			}
		}
	}
	for i, d := range dist {
		if d == inf {
			dist[i] = -1
		}
	}
	return dist
}

// MaxPropagation returns the largest finite shortest-path delay between any
// node pair — the network "propagation diameter". DEFINED-RB retires
// history entries after twice this bound (paper §2.2).
//
// When a generator preset a bound via SetPropagationBound, that bound is
// returned instead of running the exact all-pairs computation; the engine
// only ever uses MaxPropagation as a safe upper bound on settle horizons,
// so any bound ≥ the true diameter preserves correctness (a looser bound
// just retires history a little later).
func (g *Graph) MaxPropagation() vtime.Duration {
	if g.propBound > 0 {
		return g.propBound
	}
	var maxD vtime.Duration
	for s := 0; s < g.N; s++ {
		for _, d := range g.ShortestDelays(s) {
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// SetPropagationBound presets the value MaxPropagation reports. Generators
// of large graphs call this with an upper bound on the propagation diameter
// (e.g. twice the eccentricity of any node) so engine boot does not pay the
// exact all-pairs cost. A non-positive bound clears the preset.
func (g *Graph) SetPropagationBound(d vtime.Duration) { g.propBound = d }

// PropagationBound returns the preset bound, or 0 when MaxPropagation
// computes the exact diameter.
func (g *Graph) PropagationBound() vtime.Duration { return g.propBound }

// MeanLinkDelay returns the average of all link mean delays.
func (g *Graph) MeanLinkDelay() vtime.Duration {
	if len(g.Links) == 0 {
		return 0
	}
	var sum vtime.Duration
	for _, l := range g.Links {
		sum += l.Delay
	}
	return sum / vtime.Duration(len(g.Links))
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes, %d links, mean delay %v", g.Name, g.N, len(g.Links), g.MeanLinkDelay())
}

// ---- Generators ----------------------------------------------------------

// geoConfig parameterizes the geographic PoP-style generator shared by the
// named Rocketfuel-like topologies.
type geoConfig struct {
	name      string
	n         int
	seed      uint64
	extraFrac float64 // extra edges as a fraction of n beyond the spanning tree
	planeKm   float64 // side of the square the PoPs are placed on
}

// generateGeo builds a connected PoP-style graph: random placement on a
// plane, a minimum-spanning-tree backbone (so delays reflect geography),
// plus Waxman-flavored shortcut edges. Link delay = distance at the speed
// of light in fiber (~5 µs/km) with a small floor; jitter is 2 % of delay
// with a 50 µs floor.
func generateGeo(cfg geoConfig) *Graph {
	r := rng.New(cfg.seed)
	type pt struct{ x, y float64 }
	pts := make([]pt, cfg.n)
	for i := range pts {
		pts[i] = pt{r.Float64() * cfg.planeKm, r.Float64() * cfg.planeKm}
	}
	distKm := func(a, b int) float64 {
		dx, dy := pts[a].x-pts[b].x, pts[a].y-pts[b].y
		return math.Sqrt(dx*dx + dy*dy)
	}
	delayOf := func(a, b int) vtime.Duration {
		d := vtime.Duration(distKm(a, b) * 5) // 5 µs per km in fiber
		if d < 200*vtime.Microsecond {
			d = 200 * vtime.Microsecond
		}
		return d
	}

	// Prim's MST over Euclidean distance for the backbone.
	inTree := make([]bool, cfg.n)
	bestTo := make([]int, cfg.n)
	bestD := make([]float64, cfg.n)
	for i := range bestD {
		bestD[i] = math.Inf(1)
	}
	inTree[0] = true
	for i := 1; i < cfg.n; i++ {
		bestTo[i] = 0
		bestD[i] = distKm(i, 0)
	}
	var links []Link
	addLink := func(a, b int) {
		d := delayOf(a, b)
		// Shaped-emulation jitter: Emulab links are dummynet-shaped, so
		// per-packet delay noise is OS-level (~100 µs), independent of
		// the link's propagation delay.
		links = append(links, Link{A: a, B: b, Delay: d, Jitter: 100 * vtime.Microsecond})
	}
	for t := 1; t < cfg.n; t++ {
		u, best := -1, math.Inf(1)
		for i := 0; i < cfg.n; i++ {
			if !inTree[i] && bestD[i] < best {
				u, best = i, bestD[i]
			}
		}
		inTree[u] = true
		addLink(u, bestTo[u])
		for i := 0; i < cfg.n; i++ {
			if !inTree[i] {
				if d := distKm(i, u); d < bestD[i] {
					bestD[i], bestTo[i] = d, u
				}
			}
		}
	}

	// Waxman-style shortcuts: prefer close pairs, keep trying until the
	// extra budget is spent.
	have := make(map[[2]int]bool, len(links))
	for _, l := range links {
		have[linkKey(l.A, l.B)] = true
	}
	want := int(float64(cfg.n) * cfg.extraFrac)
	maxDist := cfg.planeKm * math.Sqrt2
	for added, attempts := 0, 0; added < want && attempts < want*200; attempts++ {
		a, b := r.Intn(cfg.n), r.Intn(cfg.n)
		if a == b || have[linkKey(a, b)] {
			continue
		}
		// Waxman probability: P = 0.8 * exp(-d / (0.3 * L)).
		p := 0.8 * math.Exp(-distKm(a, b)/(0.3*maxDist))
		if r.Float64() > p {
			continue
		}
		have[linkKey(a, b)] = true
		addLink(a, b)
		added++
	}

	g, err := New(cfg.name, cfg.n, links)
	if err != nil {
		panic("topology: internal generator error: " + err.Error())
	}
	return g
}

// Sprintlink returns the 43-node Sprintlink-like PoP topology (Rocketfuel
// AS1239 has 43 PoPs at the granularity the paper uses).
func Sprintlink() *Graph {
	return generateGeo(geoConfig{name: "sprintlink", n: 43, seed: 0x5912, extraFrac: 1.4, planeKm: 4500})
}

// Ebone returns the 25-node Ebone-like PoP topology (AS1755).
func Ebone() *Graph {
	return generateGeo(geoConfig{name: "ebone", n: 25, seed: 0xeb01, extraFrac: 1.2, planeKm: 3000})
}

// Level3 returns the 52-node Level3-like PoP topology (AS3356).
func Level3() *Graph {
	return generateGeo(geoConfig{name: "level3", n: 52, seed: 0x1e3e, extraFrac: 1.8, planeKm: 4500})
}

// ByName returns a named evaluation topology ("sprintlink", "ebone",
// "level3") or an error.
func ByName(name string) (*Graph, error) {
	switch name {
	case "sprintlink":
		return Sprintlink(), nil
	case "ebone":
		return Ebone(), nil
	case "level3":
		return Level3(), nil
	default:
		return nil, fmt.Errorf("topology: unknown topology %q", name)
	}
}

// Brite generates an n-node BRITE-like topology via Barabási–Albert
// preferential attachment with m links per new node, used for the
// scalability sweeps of Figure 8. Delays are drawn uniformly from
// [5 ms, 40 ms] like wide-area PoP links.
func Brite(n, m int, seed uint64) *Graph {
	if n < 2 {
		panic("topology: Brite needs n >= 2")
	}
	if m < 1 {
		m = 1
	}
	r := rng.New(seed)
	var links []Link
	have := make(map[[2]int]bool)
	// Repeated-node list implements preferential attachment.
	var targets []int
	addLink := func(a, b int) {
		have[linkKey(a, b)] = true
		// Microsecond-precision delays in [5 ms, 41 ms): real measured
		// link delays are never exactly equal, and distinct values keep
		// the d_i estimates of symmetric flood paths from tying (ties
		// would make arrival order a coin flip against the ordering
		// function and inflate rollbacks artificially).
		d := 5*vtime.Millisecond + vtime.Duration(r.Intn(36_000))*vtime.Microsecond
		links = append(links, Link{A: a, B: b, Delay: d, Jitter: 100 * vtime.Microsecond})
		targets = append(targets, a, b)
	}
	addLink(0, 1)
	for v := 2; v < n; v++ {
		picked := map[int]bool{}
		need := m
		if v < m {
			need = v
		}
		for len(picked) < need {
			var w int
			if r.Float64() < 0.1 || len(targets) == 0 {
				w = r.Intn(v) // occasional uniform pick keeps the graph diverse
			} else {
				w = targets[r.Intn(len(targets))]
			}
			if w == v || picked[w] || have[linkKey(v, w)] {
				// Fall back to scanning for any unlinked node to
				// guarantee termination on tiny graphs.
				found := false
				for cand := 0; cand < v; cand++ {
					if cand != v && !picked[cand] && !have[linkKey(v, cand)] {
						w, found = cand, true
						break
					}
				}
				if !found {
					break
				}
			}
			picked[w] = true
			addLink(v, w)
		}
	}
	g, err := New(fmt.Sprintf("brite-%d", n), n, links)
	if err != nil {
		panic("topology: internal generator error: " + err.Error())
	}
	return g
}

// Line returns a 1-D chain topology with uniform link delay, handy in unit
// tests and the paper's worked examples (Figures 1–3 use small chains).
func Line(n int, delay vtime.Duration) *Graph {
	links := make([]Link, 0, n-1)
	for i := 0; i+1 < n; i++ {
		links = append(links, Link{A: i, B: i + 1, Delay: delay, Jitter: delay / 20})
	}
	g, err := New(fmt.Sprintf("line-%d", n), n, links)
	if err != nil {
		panic("topology: internal generator error: " + err.Error())
	}
	return g
}

// Star returns a hub-and-spoke topology: node 0 is the hub.
func Star(n int, delay vtime.Duration) *Graph {
	links := make([]Link, 0, n-1)
	for i := 1; i < n; i++ {
		links = append(links, Link{A: 0, B: i, Delay: delay, Jitter: delay / 20})
	}
	g, err := New(fmt.Sprintf("star-%d", n), n, links)
	if err != nil {
		panic("topology: internal generator error: " + err.Error())
	}
	return g
}

// FromLinks builds an ad-hoc topology for tests and the case-study
// examples; it panics on invalid input (programmer error).
func FromLinks(name string, n int, links []Link) *Graph {
	g, err := New(name, n, links)
	if err != nil {
		panic(err)
	}
	return g
}
