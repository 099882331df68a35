package defined_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"defined"
	"defined/internal/faults"
	"defined/internal/record"
	"defined/internal/vtime"
)

// TestLookaheadMovesOnlyRecordedLosses is the two-link-down case on which
// lookahead once looked like it moved the committed order: Sprintlink
// OSPF, TM/MI with deferral, link 15–20 down at 460,576 µs and link 9–0
// down at 610,278 µs, over jitter seeds 1–8 with lookahead off and on.
// With lookahead on, some seeds commit a different order from seed 1's on
// most nodes. Every such run also loses a different set of messages to the
// two cuts: how long lookahead holds an arrival decides which sends are
// still on the wire when a link goes down. A loss is a recorded input
// (paper footnote 4), so Theorem 1 still holds, and this test pins its
// three parts:
//   - every run's recording replays, in lockstep, to its committed order
//     on every node;
//   - runs that record the same losses commit the same orders;
//   - with lookahead on, the seeds record at least two distinct loss sets,
//     so the case stays live.
//
// Under -short the seeds are {1, 3}, the smallest set that still shows two
// loss sets.
func TestLookaheadMovesOnlyRecordedLosses(t *testing.T) {
	g := defined.Sprintlink()
	plan := faults.NewPlan().
		Link(vtime.Time(460_576*vtime.Microsecond), 15, 20, false).
		Link(vtime.Time(610_278*vtime.Microsecond), 9, 0, false)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = []uint64{1, 3}
	}

	type run struct {
		name   string
		orders [][]string
	}
	byLosses := map[string]run{}
	for _, lookahead := range []bool{false, true} {
		lossSets := map[string]bool{}
		var first [][]string
		for _, seed := range seeds {
			name := fmt.Sprintf("lookahead %v, seed %d", lookahead, seed)
			net := mustNet(t, g, ospfApps(g.N), defined.EngineSpec{
				Seed:        &seed,
				Strategy:    "TM/MI",
				Lookahead:   &lookahead,
				Record:      ptr(true),
				DeliveryLog: ptr(true),
			})
			net.ScheduleFaults(plan)
			net.Run(plan.Horizon().Add(faults.ConvergenceSlack(g)))
			if !net.Drain() {
				t.Fatalf("%s: network did not drain", name)
			}
			orders := make([][]string, g.N)
			for i := range orders {
				orders[i] = net.CommittedOrder(defined.NodeID(i))
			}

			rec := net.Recording()
			rp, err := defined.NewReplay(g, ospfApps(g.N), rec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			rp.RunToEnd()
			for i := range orders {
				if got := rp.DeliveredOrder(defined.NodeID(i)); !reflect.DeepEqual(got, orders[i]) {
					t.Errorf("%s: node %d: replay delivered %d entries, production committed %d, orders differ",
						name, i, len(got), len(orders[i]))
				}
			}

			losses, n := lossSet(rec)
			lossSets[losses] = true
			if first == nil {
				first = orders
			}
			moved := 0
			for i := range orders {
				if !reflect.DeepEqual(orders[i], first[i]) {
					moved++
				}
			}
			t.Logf("%s: %d losses recorded, %d of %d nodes commit another order than seed %d",
				name, n, moved, g.N, seeds[0])
			if prev, ok := byLosses[losses]; ok {
				for i := range orders {
					if !reflect.DeepEqual(orders[i], prev.orders[i]) {
						t.Errorf("%s and %s record the same losses but commit different orders at node %d",
							name, prev.name, i)
						break
					}
				}
			} else {
				byLosses[losses] = run{name, orders}
			}
		}
		if lookahead && len(lossSets) < 2 {
			t.Errorf("lookahead on: seeds %v record %d loss set(s), want at least 2: the case no longer reaches a cut",
				seeds, len(lossSets))
		}
	}
}

// lossSet renders a recording's message-loss events as one sorted string
// (which message, by ordering key, each cut lost, and at which receiver)
// and counts them.
func lossSet(rec *defined.Recording) (string, int) {
	var ls []string
	for _, ev := range rec.Events {
		if l, ok := ev.Payload.(record.LossEvent); ok {
			ls = append(ls, fmt.Sprintf("%v→%d", l.Key, l.To))
		}
	}
	slices.Sort(ls)
	return strings.Join(ls, "\n"), len(ls)
}
