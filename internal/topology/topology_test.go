package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"defined/internal/vtime"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", 2, []Link{{A: 0, B: 0, Delay: 1}}); err == nil {
		t.Error("self link should be rejected")
	}
	if _, err := New("bad", 2, []Link{{A: 0, B: 5, Delay: 1}}); err == nil {
		t.Error("out-of-range link should be rejected")
	}
	if _, err := New("bad", 2, []Link{{A: 0, B: 1, Delay: 0}}); err == nil {
		t.Error("zero delay should be rejected")
	}
	if _, err := New("bad", 3, []Link{{A: 0, B: 1, Delay: 1}, {A: 1, B: 0, Delay: 2}}); err == nil {
		t.Error("reversed duplicate link should be rejected")
	}
	if _, err := New("bad", 3, []Link{{A: 1, B: 2, Delay: 1}, {A: 0, B: 2, Delay: 1}, {A: 1, B: 2, Delay: 3}}); err == nil {
		t.Error("same-direction duplicate link should be rejected")
	}
}

// Neighbors and Incident hand out views of one shared table, capped at the
// row's end: appending to node 0's row must copy, not overwrite node 1's.
func TestRowViewsAreCapped(t *testing.T) {
	g := Line(3, vtime.Millisecond)
	nbrs, links := slices.Clone(g.Neighbors(1)), slices.Clone(g.Incident(1))
	_ = append(g.Neighbors(0), 99)
	_ = append(g.Incident(0), 99)
	if !slices.Equal(g.Neighbors(1), nbrs) || !slices.Equal(g.Incident(1), links) {
		t.Fatalf("node 1's row changed by appends to node 0's: %v %v, want %v %v",
			g.Neighbors(1), g.Incident(1), nbrs, links)
	}
}

// FuzzNew holds the adjacency table to a linear scan of the link list. The
// first byte picks n (0..15); every three bytes after it are one link: two
// ends in -1..n (so out-of-range ends occur) and a signed delay (so
// non-positive ones do). New must fail exactly when the list has a self,
// out-of-range, non-positive-delay or duplicate link, duplicates counted
// either way round; otherwise every lookup must agree with the scan.
func FuzzNew(f *testing.F) {
	f.Add([]byte{4, 1, 2, 5, 2, 3, 7, 3, 4, 9})                            // the path 0-1-2-3
	f.Add([]byte{4, 2, 1, 5, 1, 2, 7})                                     // 0-1 after 1-0
	f.Add([]byte{4, 2, 3, 5, 1, 4, 6, 2, 3, 7})                            // 1-2 twice
	f.Add([]byte{3, 1, 1, 5})                                              // a self link
	f.Add([]byte{5, 1, 6, 5, 1, 3, 0, 1, 4, 255})                          // out of range, zero and negative delay
	f.Add([]byte{6, 3, 1, 1, 1, 5, 2, 6, 1, 3, 4, 1, 1, 1, 2, 4, 3, 4, 3}) // a star with unsorted ends, and a rim link
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n, data := int(data[0]%16), data[1:]
		var links []Link
		for ; len(data) >= 3; data = data[3:] {
			links = append(links, Link{
				A:     int(data[0])%(n+2) - 1,
				B:     int(data[1])%(n+2) - 1,
				Delay: vtime.Duration(int8(data[2])),
			})
		}
		bad := false
		for i, l := range links {
			bad = bad || l.A == l.B || l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.Delay <= 0
			for _, m := range links[:i] {
				bad = bad || (m.A == l.A && m.B == l.B) || (m.A == l.B && m.B == l.A)
			}
		}
		g, err := New("fuzz", n, links)
		if (err != nil) != bad {
			t.Fatalf("New(%d, %v): err = %v, want error %v", n, links, err, bad)
		}
		if err != nil {
			return
		}
		scan := func(a, b int) int {
			for i, l := range links {
				if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
					return i
				}
			}
			return -1
		}
		for a := -1; a <= n; a++ {
			for b := -1; b <= n; b++ {
				idx := scan(a, b)
				if got := g.LinkIndex(a, b); got != idx {
					t.Fatalf("LinkIndex(%d, %d) = %d, want %d", a, b, got, idx)
				}
				if got := g.LinkIndex(b, a); got != idx {
					t.Fatalf("LinkIndex(%d, %d) = %d, want %d (symmetry)", b, a, got, idx)
				}
				l, ok := g.LinkBetween(a, b)
				if ok != (idx >= 0) || (ok && l != links[idx]) || (!ok && l != Link{}) {
					t.Fatalf("LinkBetween(%d, %d) = %+v, %v; want link %d", a, b, l, ok, idx)
				}
				k := g.Slot(a, b)
				if idx < 0 {
					if k != -1 {
						t.Fatalf("Slot(%d, %d) = %d for no link", a, b, k)
					}
					continue
				}
				if k < 0 || g.Neighbors(a)[k] != b || g.Incident(a)[k] != idx {
					t.Fatalf("Slot(%d, %d) = %d does not index link %d in row %v / %v", a, b, k, idx, g.Neighbors(a), g.Incident(a))
				}
			}
		}
		for a := range n {
			nbrs, inc := g.Neighbors(a), g.Incident(a)
			deg := 0
			for _, l := range links {
				if l.A == a || l.B == a {
					deg++
				}
			}
			if len(nbrs) != deg || len(inc) != deg || g.Degree(a) != deg {
				t.Fatalf("node %d: row lengths %d/%d, Degree %d; want %d", a, len(nbrs), len(inc), g.Degree(a), deg)
			}
			for k, b := range nbrs {
				if k > 0 && nbrs[k-1] >= b {
					t.Fatalf("node %d: row %v not strictly increasing", a, nbrs)
				}
				if l := links[inc[k]]; !(l.A == a && l.B == b) && !(l.A == b && l.B == a) {
					t.Fatalf("node %d: Incident[%d] = link %d %+v does not join %d and %d", a, k, inc[k], l, a, b)
				}
			}
		}
	})
}

func TestLineTopology(t *testing.T) {
	g := Line(5, 10*vtime.Millisecond)
	if g.N != 5 || len(g.Links) != 4 {
		t.Fatalf("line-5: n=%d links=%d", g.N, len(g.Links))
	}
	if !g.Connected() {
		t.Fatal("line must be connected")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d, %d", g.Degree(0), g.Degree(2))
	}
	l, ok := g.LinkBetween(2, 3)
	if !ok || l.Delay != 10*vtime.Millisecond {
		t.Fatalf("LinkBetween(2,3) = %+v, %v", l, ok)
	}
	if _, ok := g.LinkBetween(0, 4); ok {
		t.Fatal("no direct link 0-4 in a line")
	}
	if g.LinkIndex(3, 2) != g.LinkIndex(2, 3) {
		t.Fatal("LinkIndex must be symmetric")
	}
	if g.LinkIndex(0, 4) != -1 {
		t.Fatal("missing link index should be -1")
	}
	d := g.ShortestDelays(0)
	if d[4] != 40*vtime.Millisecond {
		t.Fatalf("end-to-end delay %v, want 40ms", d[4])
	}
	if g.MaxPropagation() != 40*vtime.Millisecond {
		t.Fatalf("MaxPropagation = %v", g.MaxPropagation())
	}
}

func TestStarTopology(t *testing.T) {
	g := Star(6, 5*vtime.Millisecond)
	if g.Degree(0) != 5 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	if g.MaxPropagation() != 10*vtime.Millisecond {
		t.Fatalf("MaxPropagation = %v", g.MaxPropagation())
	}
}

func TestNamedTopologies(t *testing.T) {
	cases := []struct {
		g    *Graph
		n    int
		name string
	}{
		{Sprintlink(), 43, "sprintlink"},
		{Ebone(), 25, "ebone"},
		{Level3(), 52, "level3"},
	}
	for _, c := range cases {
		if c.g.N != c.n {
			t.Errorf("%s: %d nodes, want %d", c.name, c.g.N, c.n)
		}
		if c.g.Name != c.name {
			t.Errorf("name = %q, want %q", c.g.Name, c.name)
		}
		if !c.g.Connected() {
			t.Errorf("%s must be connected", c.name)
		}
		if len(c.g.Links) < c.n {
			t.Errorf("%s too sparse: %d links", c.name, len(c.g.Links))
		}
		meanDeg := 2 * float64(len(c.g.Links)) / float64(c.g.N)
		if meanDeg < 2.5 || meanDeg > 8 {
			t.Errorf("%s mean degree %.1f outside PoP-graph range", c.name, meanDeg)
		}
		if c.g.MaxPropagation() <= 0 {
			t.Errorf("%s zero propagation diameter", c.name)
		}
	}
}

func TestNamedTopologiesDeterministic(t *testing.T) {
	a, b := Sprintlink(), Sprintlink()
	if len(a.Links) != len(b.Links) {
		t.Fatal("regenerated topology differs in size")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, a.Links[i], b.Links[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sprintlink", "ebone", "level3"} {
		g, err := ByName(name)
		if err != nil || g.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, g, err)
		}
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown topology should error")
	}
}

func TestBriteSizesAndConnectivity(t *testing.T) {
	for _, n := range []int{20, 40, 60, 80} {
		g := Brite(n, 2, 42)
		if g.N != n {
			t.Fatalf("brite: n=%d, want %d", g.N, n)
		}
		if !g.Connected() {
			t.Fatalf("brite-%d must be connected", n)
		}
		// BA with m=2 has ~2n edges.
		if len(g.Links) < n-1 || len(g.Links) > 3*n {
			t.Fatalf("brite-%d has %d links", n, len(g.Links))
		}
	}
}

func TestBriteDeterministicPerSeed(t *testing.T) {
	a, b := Brite(30, 2, 7), Brite(30, 2, 7)
	c := Brite(30, 2, 8)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same-seed brite differs")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatal("same-seed brite link differs")
		}
	}
	same := len(a.Links) == len(c.Links)
	if same {
		identical := true
		for i := range a.Links {
			if a.Links[i] != c.Links[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestShortestDelaysUnreachable(t *testing.T) {
	g, err := New("split", 4, []Link{{A: 0, B: 1, Delay: 5}, {A: 2, B: 3, Delay: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("split graph should not be connected")
	}
	d := g.ShortestDelays(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable should be -1: %v", d)
	}
	if d[0] != 0 || d[1] != 5 {
		t.Fatalf("reachable delays wrong: %v", d)
	}
}

// ShortestPaths weighs and filters hops as told: on the ring 0-1-2-3-0 a
// hop count ignores the delays, a cut link forces the detour, and a
// blocked node is unreachable and relays nothing.
func TestShortestPathsWeightAndFilter(t *testing.T) {
	g, err := New("ring", 4, []Link{{A: 0, B: 1, Delay: 50}, {A: 1, B: 2, Delay: 5}, {A: 2, B: 3, Delay: 5}, {A: 3, B: 0, Delay: 5}})
	if err != nil {
		t.Fatal(err)
	}
	hops := func(Link) int64 { return 1 }
	for _, c := range []struct {
		name string
		w    func(Link) int64
		keep func(u, v int) bool
		want []int64
	}{
		{"delays", func(l Link) int64 { return int64(l.Delay) }, nil, []int64{0, 15, 10, 5}},
		{"hops", hops, nil, []int64{0, 1, 2, 1}},
		{"cut 0-1", hops, func(u, v int) bool { return u+v != 1 }, []int64{0, 3, 2, 1}},
		{"block 3", hops, func(u, v int) bool { return v != 3 }, []int64{0, 1, 2, -1}},
	} {
		if got := ShortestPaths(g, 0, c.w, c.keep); !slices.Equal(got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMeanLinkDelay(t *testing.T) {
	g := Line(3, 10*vtime.Millisecond)
	if g.MeanLinkDelay() != 10*vtime.Millisecond {
		t.Fatalf("mean delay = %v", g.MeanLinkDelay())
	}
	empty, _ := New("empty", 1, nil)
	if empty.MeanLinkDelay() != 0 {
		t.Fatal("empty graph mean delay should be 0")
	}
	if !empty.Connected() {
		t.Fatal("single node graph is connected")
	}
}

func TestStringContainsName(t *testing.T) {
	g := Line(3, vtime.Millisecond)
	if s := g.String(); len(s) == 0 || s[:4] != "line" {
		t.Fatalf("String() = %q", s)
	}
}

// Property: for random BRITE graphs, shortest path delays satisfy the
// triangle inequality through any intermediate node.
func TestTriangleInequalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Brite(15, 2, seed)
		d0 := g.ShortestDelays(0)
		for mid := 1; mid < g.N; mid++ {
			dm := g.ShortestDelays(mid)
			for v := 0; v < g.N; v++ {
				if d0[v] >= 0 && d0[mid] >= 0 && dm[v] >= 0 && d0[v] > d0[mid]+dm[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbor lists are symmetric.
func TestAdjacencySymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Brite(20, 2, seed)
		for v := 0; v < g.N; v++ {
			for _, w := range g.Neighbors(v) {
				found := false
				for _, x := range g.Neighbors(w) {
					if x == v {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

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

// PropagationBound returns the preset bound, or 0 when MaxPropagation
// computes the exact diameter.
func (g *Graph) PropagationBound() vtime.Duration { return g.propBound }
