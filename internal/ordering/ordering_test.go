package ordering

import (
	"testing"
	"testing/quick"

	"defined/internal/msg"
	"defined/internal/rng"
	"defined/internal/vtime"
)

func k(group uint64, delay vtime.Duration, origin msg.NodeID, seq uint64) Key {
	return Key{Group: group, Class: ClassMessage, Delay: delay, Origin: origin, Seq: seq}
}

func TestOptimizedPaperExample(t *testing.T) {
	// Figure 2: all messages originate at W (node 0), same link delays,
	// so order is determined by sequence numbers: mb=0, ma=1, md=2, mc=3.
	oo := Optimized()
	mb := k(1, 10, 0, 0)
	ma := k(1, 10, 0, 1)
	md := k(1, 10, 0, 2)
	mc := k(1, 10, 0, 3)
	arrival := []Key{mb, md, mc, ma} // arrival order from the figure
	Sort(arrival, oo)
	want := []Key{mb, ma, md, mc} // computed order from the figure
	for i := range want {
		if arrival[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, arrival[i], want[i])
		}
	}
}

func TestOptimizedSortsByDelayFirst(t *testing.T) {
	oo := Optimized()
	// Message from a "far" origin with small delay sorts before a
	// "near" origin with large delay: d_i dominates n_i.
	early := k(1, 5*vtime.Millisecond, 9, 0)
	late := k(1, 20*vtime.Millisecond, 1, 0)
	if oo.Compare(early, late) >= 0 {
		t.Fatal("smaller d_i must sort first")
	}
	// Identical d_i: origin id breaks the tie.
	a := k(1, 10, 1, 5)
	b := k(1, 10, 2, 0)
	if oo.Compare(a, b) >= 0 {
		t.Fatal("smaller n_i must sort first when d_i ties")
	}
	// Identical d_i and n_i: sequence number.
	c := k(1, 10, 1, 6)
	if oo.Compare(a, c) >= 0 {
		t.Fatal("smaller s_i must sort first when d_i, n_i tie")
	}
}

func TestChainHashSharedAlongChain(t *testing.T) {
	// All messages of one causal chain share the RO hash (children
	// inherit (n_i, s_i)), which keeps RO causally consistent and lets
	// DEFINED-LS replay chains sequentially.
	ro := Random(3).(ChainOrdered)
	parent := Key{Group: 1, Class: ClassMessage, Delay: 5, Origin: 2, Seq: 9}
	child := Key{Group: 1, Class: ClassMessage, Delay: 12, Origin: 2, Seq: 9, From: 4}
	if ro.ChainHash(parent) != ro.ChainHash(child) {
		t.Fatal("chain hash must be stable along a chain")
	}
	other := Key{Group: 1, Class: ClassMessage, Delay: 5, Origin: 3, Seq: 9}
	if ro.ChainHash(parent) == ro.ChainHash(other) {
		t.Fatal("distinct chains should hash differently")
	}
}

func TestGroupDominatesEverything(t *testing.T) {
	for _, f := range []Func{Optimized(), Random(1)} {
		g1 := k(1, 100, 9, 9)
		g2 := k(2, 1, 0, 0)
		if f.Compare(g1, g2) >= 0 {
			t.Fatalf("%s: earlier group must sort first", f.Name())
		}
	}
}

func TestClassOrderWithinGroup(t *testing.T) {
	for _, f := range []Func{Optimized(), Random(7)} {
		timer := TimerKey(3, 5)
		ext := ExternalKey(3, 5, 0)
		first := k(3, 0, 0, 0) // smallest possible message key in group
		if f.Compare(timer, ext) >= 0 {
			t.Fatalf("%s: timer must precede externals", f.Name())
		}
		if f.Compare(ext, first) >= 0 {
			t.Fatalf("%s: externals must precede messages", f.Name())
		}
		prevGroup := k(2, 1<<40, 100, 100)
		if f.Compare(prevGroup, timer) >= 0 {
			t.Fatalf("%s: previous-group message must precede timer batch", f.Name())
		}
		// Entries of the same class order by node (and seq for externals).
		if f.Compare(TimerKey(3, 5), TimerKey(3, 6)) >= 0 {
			t.Fatalf("%s: timer batches must order by node id", f.Name())
		}
		if f.Compare(ExternalKey(3, 5, 0), ExternalKey(3, 5, 1)) >= 0 {
			t.Fatalf("%s: externals must order by in-group seq", f.Name())
		}
		if f.Compare(ExternalKey(3, 4, 9), ExternalKey(3, 5, 0)) >= 0 {
			t.Fatalf("%s: externals must order by node before seq", f.Name())
		}
	}
}

func TestIsTimerIsExternal(t *testing.T) {
	if !TimerKey(1, 2).IsTimer() || TimerKey(1, 2).IsExternal() {
		t.Fatal("TimerKey classification wrong")
	}
	if !ExternalKey(1, 2, 3).IsExternal() || ExternalKey(1, 2, 3).IsTimer() {
		t.Fatal("ExternalKey classification wrong")
	}
	if k(1, 1, 1, 1).IsTimer() || k(1, 1, 1, 1).IsExternal() {
		t.Fatal("message key classification wrong")
	}
}

func TestCausalConsistency(t *testing.T) {
	// A child message has a strictly larger d_i than its parent (it
	// shares (n_i, s_i)), so every ordering function keeps parents first.
	parent := msg.Annotation{Origin: 3, Seq: 7, Delay: 10 * vtime.Millisecond, Group: 2, Chain: 0}
	child := msg.AnnotateChild(parent, 5*vtime.Millisecond)
	pk := Key{Group: parent.Group, Class: ClassMessage, Delay: parent.Delay, Origin: parent.Origin, Seq: parent.Seq}
	ck := Key{Group: child.Group, Class: ClassMessage, Delay: child.Delay, Origin: child.Origin, Seq: child.Seq}
	for _, f := range []Func{Optimized(), Random(3), Random(99)} {
		if f.Compare(pk, ck) >= 0 {
			t.Fatalf("%s: parent must order before child", f.Name())
		}
	}
}

func TestRandomShufflesChains(t *testing.T) {
	// Ten chains with identical delays: OO orders them by origin id; RO
	// should produce a different permutation for at least one seed.
	keys := make([]Key, 10)
	for i := range keys {
		keys[i] = k(1, 10, msg.NodeID(i), 0)
	}
	ooSorted := append([]Key(nil), keys...)
	Sort(ooSorted, Optimized())
	differs := false
	for seed := uint64(0); seed < 5 && !differs; seed++ {
		roSorted := append([]Key(nil), keys...)
		Sort(roSorted, Random(seed))
		for i := range roSorted {
			if roSorted[i] != ooSorted[i] {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Fatal("RO never deviates from OO — not a random ordering")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	keys := make([]Key, 20)
	for i := range keys {
		keys[i] = k(1, vtime.Duration(i%3), msg.NodeID(i), uint64(i))
	}
	a := append([]Key(nil), keys...)
	b := append([]Key(nil), keys...)
	Sort(a, Random(42))
	Sort(b, Random(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RO with the same seed must sort identically")
		}
	}
}

func TestKeyOfAndTieBreak(t *testing.T) {
	m1 := &msg.Message{
		From:    2,
		Ann:     msg.Annotation{Origin: 1, Seq: 4, Delay: 7, Group: 3, Chain: 2},
		LinkSeq: 11,
	}
	key1 := KeyOf(m1)
	want := Key{Group: 3, Class: ClassMessage, Delay: 7, Origin: 1, Seq: 4, From: 2, LinkSeq: 11}
	if key1 != want {
		t.Fatalf("KeyOf = %+v, want %+v", key1, want)
	}
	// Same annotation, different previous hop: order by From then LinkSeq.
	oo := Optimized()
	key2 := want
	key2.From, key2.LinkSeq = 3, 0
	if oo.Compare(key1, key2) >= 0 {
		t.Fatal("From must break annotation ties")
	}
	key3 := want
	key3.LinkSeq = 12
	if oo.Compare(key1, key3) >= 0 {
		t.Fatal("LinkSeq must break From ties")
	}
}

func TestCompareZeroOnlyForIdentical(t *testing.T) {
	a := Key{Group: 1, Class: ClassMessage, Delay: 2, Origin: 3, Seq: 4, From: 5, LinkSeq: 6}
	b := a
	for _, f := range []Func{Optimized(), Random(5)} {
		if f.Compare(a, b) != 0 {
			t.Fatalf("%s: identical keys must compare 0", f.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"OO", "RO"} {
		f, err := ByName(name, 3)
		if err != nil || f.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, f, err)
		}
	}
	for _, name := range []string{"oo", "optimized", "ro", "random", "bogus"} {
		if _, err := ByName(name, 0); err == nil {
			t.Errorf("ByName(%q): only the names Name writes resolve", name)
		}
	}
}

func TestKeyString(t *testing.T) {
	if TimerKey(2, 1).String() != "{timer g2 n1}" {
		t.Fatalf("timer key string: %s", TimerKey(2, 1).String())
	}
	if ExternalKey(2, 1, 3).String() != "{ext g2 n1 #3}" {
		t.Fatalf("external key string: %s", ExternalKey(2, 1, 3).String())
	}
	s := k(1, 5, 2, 3).String()
	if s == "" || s[0] != '{' {
		t.Fatalf("key string: %q", s)
	}
}

func randomKey(r *rng.Source) Key {
	switch r.Intn(10) {
	case 0:
		return TimerKey(uint64(r.Intn(3)), msg.NodeID(r.Intn(4)))
	case 1:
		return ExternalKey(uint64(r.Intn(3)), msg.NodeID(r.Intn(4)), uint64(r.Intn(3)))
	default:
		return Key{
			Group:   uint64(r.Intn(3)),
			Class:   ClassMessage,
			Delay:   vtime.Duration(r.Intn(5)),
			Origin:  msg.NodeID(r.Intn(4)),
			Seq:     uint64(r.Intn(4)),
			From:    msg.NodeID(r.Intn(4)),
			LinkSeq: uint64(r.Intn(3)),
		}
	}
}

// Property: Compare is a strict total order — antisymmetric and transitive —
// for both ordering functions.
func TestTotalOrderProperty(t *testing.T) {
	funcs := []Func{Optimized(), Random(17)}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a, b, c := randomKey(r), randomKey(r), randomKey(r)
		for _, fn := range funcs {
			// Antisymmetry.
			if fn.Compare(a, b) != -fn.Compare(b, a) {
				return false
			}
			// Reflexivity.
			if fn.Compare(a, a) != 0 {
				return false
			}
			// Transitivity.
			if fn.Compare(a, b) <= 0 && fn.Compare(b, c) <= 0 && fn.Compare(a, c) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: sorting any permutation of a key set yields the same sequence
// (the ordering is permutation-invariant — the core of determinism).
func TestPermutationInvarianceProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		r := rng.New(seed)
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = randomKey(r)
		}
		for _, fn := range []Func{Optimized(), Random(seed)} {
			ref := append([]Key(nil), keys...)
			Sort(ref, fn)
			perm := r.Perm(n)
			shuffled := make([]Key, n)
			for i, p := range perm {
				shuffled[i] = keys[p]
			}
			Sort(shuffled, fn)
			for i := range ref {
				if ref[i] != shuffled[i] {
					return false
				}
			}
			if !IsSorted(ref, fn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Rank's contract, for both orderings over keys of all three classes: a
// strictly smaller rank means a strictly smaller key, equal keys have equal
// ranks, ranks that differ decide as Compare does, and a timer or external
// key comes back from its rank (LocalKey). Delays and origins go negative
// and groups large, to reach the sign bias and the Hi packing.
func TestRankConsistent(t *testing.T) {
	wide := func(r *rng.Source) Key {
		k := randomKey(r)
		if r.Intn(4) == 0 {
			k.Group += 1<<61 + uint64(r.Intn(2))
		}
		if r.Intn(4) == 0 {
			k.Origin -= 2
		}
		if k.Class == ClassMessage && r.Intn(4) == 0 {
			k.Delay = -k.Delay - vtime.Duration(r.Intn(2))
		}
		return k
	}
	for _, fn := range []Func{Optimized(), Random(17)} {
		r := rng.New(23)
		decided := 0
		for i := 0; i < 20_000; i++ {
			a, b := wide(r), wide(r)
			ra, rb := fn.Rank(a), fn.Rank(b)
			c := fn.Compare(a, b)
			if ra.Less(rb) && c >= 0 {
				t.Fatalf("%s: Rank(%v) < Rank(%v) but Compare = %d", fn.Name(), a, b, c)
			}
			if c == 0 && ra != rb {
				t.Fatalf("%s: equal keys %v with ranks %v and %v", fn.Name(), a, ra, rb)
			}
			if rb.Less(ra) && c <= 0 {
				t.Fatalf("%s: Rank(%v) > Rank(%v) but Compare = %d", fn.Name(), a, b, c)
			}
			if a.Class != ClassMessage && LocalKey(ra, a.Seq) != a {
				t.Fatalf("%s: LocalKey(Rank(%v)) = %v", fn.Name(), a, LocalKey(ra, a.Seq))
			}
			if ra != rb {
				decided++
			}
		}
		// The rank is only worth caching if it usually decides.
		if decided < 15_000 {
			t.Fatalf("%s: ranks decided only %d of 20000 comparisons", fn.Name(), decided)
		}
	}
}
