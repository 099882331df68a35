package msg

import (
	"fmt"
	"sync"
	"testing"

	"defined/internal/rng"
)

// A pool against a model of it: random Get/Retain/Release programs, with
// Live, Len, the free chain's exact order (last released, first reused) and
// "no struct handed to two owners" checked after every step, in plain,
// poison and concurrent mode.

// poolModel is what a Pool should be after a program's steps so far.
type poolModel struct {
	poison bool
	shared bool                // other programs use the pool too: reuse order is not checkable
	refs   []*Message          // one element per reference the program holds
	live   map[*Message]int32  // checked-out structs and their reference counts
	free   []*Message          // the free chain, most recently released last
	seen   map[*Message]bool   // every struct the pool has handed out
	owner  map[*Message]NodeID // who holds each live struct (its From tag)
	quar   int
}

func newPoolModel(poison bool) *poolModel {
	return &poolModel{poison: poison, live: map[*Message]int32{}, seen: map[*Message]bool{}, owner: map[*Message]NodeID{}}
}

// chain walks p's free chain from its head, stopping past Len()+1 links so
// a cycle cannot hang the test.
func chain(p *Pool) []*Message {
	var out []*Message
	for m := p.free; m != nil && len(out) <= p.nfree; m, _ = m.Payload.(*Message) {
		out = append(out, m)
	}
	return out
}

// step runs one random operation of program r against p and the model.
func (md *poolModel) step(p *Pool, r *rng.Source, tag NodeID) error {
	switch op := r.Intn(10); {
	case op < 4 || len(md.refs) == 0:
		m := p.Get()
		if md.live[m] != 0 {
			return fmt.Errorf("Get handed out a struct that is still live (refs %d)", md.live[m])
		}
		if m.Refs() != 1 || m.Payload != nil || m.From != 0 || !m.Managed() {
			return fmt.Errorf("Get returned an unclean struct: %+v refs=%d", m, m.Refs())
		}
		switch n := len(md.free); {
		case md.shared:
		case n > 0:
			if m != md.free[n-1] {
				return fmt.Errorf("Get did not reuse the most recently released struct")
			}
			md.free = md.free[:n-1]
		case md.seen[m]:
			return fmt.Errorf("Get reused a struct the free chain did not hold (poison or a double hand-out)")
		}
		m.From = tag
		md.seen[m], md.live[m], md.owner[m] = true, 1, tag
		md.refs = append(md.refs, m)
	case op < 6:
		m := md.refs[r.Intn(len(md.refs))]
		if m.Retain() != m {
			return fmt.Errorf("Retain returned another struct")
		}
		md.live[m]++
		md.refs = append(md.refs, m)
	default:
		i := r.Intn(len(md.refs))
		m := md.refs[i]
		md.refs[i] = md.refs[len(md.refs)-1]
		md.refs = md.refs[:len(md.refs)-1]
		if m.From != md.owner[m] {
			return fmt.Errorf("struct owned by %d carries tag %d: handed to two owners", md.owner[m], m.From)
		}
		m.Release()
		if md.live[m]--; md.live[m] == 0 {
			delete(md.live, m)
			delete(md.owner, m)
			switch {
			case md.poison:
				md.quar++
			case !md.shared:
				md.free = append(md.free, m)
			}
		}
	}
	return nil
}

// check compares the pool's counters and free chain with the model.
func (md *poolModel) check(t *testing.T, p *Pool) {
	t.Helper()
	if p.Live() != len(md.live) || p.Len() != len(md.free) || p.Quarantined() != md.quar {
		t.Fatalf("live/len/quarantined = %d/%d/%d, model %d/%d/%d",
			p.Live(), p.Len(), p.Quarantined(), len(md.live), len(md.free), md.quar)
	}
	got := chain(p)
	if len(got) != len(md.free) {
		t.Fatalf("free chain has %d links, Len %d", len(got), len(md.free))
	}
	for i, m := range got {
		if m != md.free[len(md.free)-1-i] || m.Refs() != 0 {
			t.Fatalf("free chain link %d is not the model's (refs %d)", i, m.Refs())
		}
	}
}

func TestPoolAgainstModel(t *testing.T) {
	steps := 3000
	if testing.Short() {
		steps = 500
	}
	for _, mode := range []struct {
		name               string
		poison, concurrent bool
	}{{"plain", false, false}, {"poison", true, false}, {"concurrent", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				var p Pool
				p.SetPoison(mode.poison)
				p.SetConcurrent(mode.concurrent)
				md, r := newPoolModel(mode.poison), rng.New(seed)
				for range steps {
					if err := md.step(&p, r, 1); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					md.check(t, &p)
				}
				for len(md.refs) > 0 { // drain: every struct comes back
					md.refs[0].Release()
					md.refs = md.refs[1:]
				}
				if p.Live() != 0 || p.Violations() != 0 {
					t.Fatalf("seed %d: live=%d violations=%d after the drain", seed, p.Live(), p.Violations())
				}
			}
		})
	}
}

// Several goroutines run their own programs on one concurrent pool. Each
// checks its own structs' tags (a struct handed to two owners shows up as
// a foreign tag); after all drain, the free chain holds every struct ever
// handed out exactly once.
func TestConcurrentPoolPrograms(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	var p Pool
	p.SetConcurrent(true)
	const goroutines = 4
	seen := make([]map[*Message]bool, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			md, r := newPoolModel(false), rng.New(uint64(100+g))
			md.shared = true // another goroutine's releases feed this one's Gets
			for range steps {
				if err := md.step(&p, r, NodeID(g+1)); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					break
				}
			}
			for _, m := range md.refs {
				m.Release()
			}
			seen[g] = md.seen
		}()
	}
	wg.Wait()
	all := map[*Message]bool{}
	for _, s := range seen {
		for m := range s {
			all[m] = true
		}
	}
	got := chain(&p)
	on := map[*Message]bool{}
	for _, m := range got {
		if on[m] || !all[m] {
			t.Fatal("free chain holds a struct twice, or one never handed out")
		}
		on[m] = true
	}
	if p.Live() != 0 || p.Violations() != 0 || p.Len() != len(all) || len(got) != len(all) {
		t.Fatalf("live=%d violations=%d len=%d chain=%d, want 0/0/%d/%d",
			p.Live(), p.Violations(), p.Len(), len(got), len(all), len(all))
	}
}
