package msg

import (
	"strings"
	"testing"
	"testing/quick"

	"defined/internal/vtime"
)

func TestAnnotateChildFigure1(t *testing.T) {
	// Reproduce Figure 1 of the paper: W→X→Z→Y with link delays
	// l_wx, l_xz, l_zy. All messages share (origin, seq); delays chain.
	lwx := 10 * vtime.Millisecond
	lxz := 20 * vtime.Millisecond
	lzy := 5 * vtime.Millisecond

	ma := AnnotateOrigin(0 /* W */, 7, lwx, 3)
	if ma.Delay != lwx || ma.Origin != 0 || ma.Seq != 7 || ma.Group != 3 || ma.Chain != 0 {
		t.Fatalf("ma = %+v", ma)
	}
	mb := AnnotateChild(ma, lxz)
	if mb.Delay != lwx+lxz {
		t.Fatalf("db = %v, want %v", mb.Delay, lwx+lxz)
	}
	mc := AnnotateChild(mb, lzy)
	if mc.Delay != lwx+lxz+lzy {
		t.Fatalf("dc = %v, want %v", mc.Delay, lwx+lxz+lzy)
	}
	if mb.Origin != ma.Origin || mc.Origin != ma.Origin {
		t.Fatal("origin must be inherited along the chain")
	}
	if mb.Seq != ma.Seq || mc.Seq != ma.Seq {
		t.Fatal("seq must be inherited along the chain")
	}
	if mb.Chain != 1 || mc.Chain != 2 {
		t.Fatalf("chain lengths = %d, %d", mb.Chain, mc.Chain)
	}
}

func TestMaxParent(t *testing.T) {
	a := Annotation{Origin: 1, Seq: 1, Delay: 10, Group: 2}
	b := Annotation{Origin: 2, Seq: 9, Delay: 30, Group: 2}
	c := Annotation{Origin: 3, Seq: 5, Delay: 20, Group: 2}
	got := MaxParent([]Annotation{a, b, c})
	if got != b {
		t.Fatalf("MaxParent = %+v, want %+v", got, b)
	}
	// Later group dominates larger delay.
	d := Annotation{Origin: 4, Seq: 1, Delay: 1, Group: 3}
	got = MaxParent([]Annotation{a, b, c, d})
	if got != d {
		t.Fatalf("MaxParent with later group = %+v, want %+v", got, d)
	}
}

func TestMaxParentPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxParent(nil)
}

func TestMaxParentTieBreaksFirst(t *testing.T) {
	a := Annotation{Origin: 1, Delay: 10, Group: 2}
	b := Annotation{Origin: 2, Delay: 10, Group: 2}
	if got := MaxParent([]Annotation{a, b}); got != a {
		t.Fatalf("tie should keep first parent, got %+v", got)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindApp:  "app",
		KindAnti: "anti",
		Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestStringRenderings(t *testing.T) {
	m := &Message{
		ID:   ID{Sender: 3, Seq: 12},
		From: 3, To: 5,
		Kind: KindApp,
		Ann:  Annotation{Origin: 1, Seq: 2, Delay: 5 * vtime.Millisecond, Group: 9},
	}
	s := m.String()
	for _, want := range []string{"app", "3:12", "3→5", "g9"} {
		if !strings.Contains(s, want) {
			t.Errorf("message string %q missing %q", s, want)
		}
	}
	if (ID{Sender: 1, Seq: 2}).String() != "1:2" {
		t.Error("ID.String wrong")
	}
}

// Property: a child's delay strictly exceeds its parent's for positive link
// delays — this is what makes the ordering function causally consistent.
func TestChildDelayExceedsParentProperty(t *testing.T) {
	f := func(parentDelay uint32, linkDelay uint32) bool {
		p := Annotation{Delay: vtime.Duration(parentDelay)}
		l := vtime.Duration(linkDelay%1_000_000) + 1 // positive
		c := AnnotateChild(p, l)
		return c.Delay > p.Delay
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxParent returns an element of its input and no input exceeds
// it under (group, delay) order.
func TestMaxParentProperty(t *testing.T) {
	f := func(delays []uint16, groups []uint8) bool {
		n := len(delays)
		if len(groups) < n {
			n = len(groups)
		}
		if n == 0 {
			return true
		}
		anns := make([]Annotation, n)
		for i := 0; i < n; i++ {
			anns[i] = Annotation{Origin: NodeID(i), Delay: vtime.Duration(delays[i]), Group: uint64(groups[i])}
		}
		got := MaxParent(anns)
		found := false
		for _, a := range anns {
			if a == got {
				found = true
			}
			if a.Group > got.Group || (a.Group == got.Group && a.Delay > got.Delay) {
				return false
			}
		}
		return found
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
