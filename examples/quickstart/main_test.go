package main

import (
	"bytes"
	"testing"
)

// TestOutput pins the example's whole printed output, line for line.
// Every line is a count, a fingerprint or a routing-table entry, so the
// text is a function of the code alone: a committed order that moves with
// the jitter seed or a replay that diverges from production fails here.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	if got := out.String(); got != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", got, want)
	}
}

const want = `topology: brite-8: 8 nodes, 13 links, mean delay 20.538ms
plan fingerprint: 0x6ffb8f85fcfc27c0

seed 1:  334 deliveries,  12 rollbacks,   2 anti-messages
seed 2:  333 deliveries,  11 rollbacks,   2 anti-messages
seed 3:  334 deliveries,  12 rollbacks,   2 anti-messages

✓ committed delivery order identical across all seeds (DEFINED-RB)
✓ DEFINED-LS replayed 320 deliveries from 4 recorded external events
✓ replay reproduced the production execution exactly (Theorem 1)

node 0's routing table after replay:
dest 1 via 7 cost 249
dest 2 via 2 cost 263
dest 3 via 3 cost 214
dest 4 via 3 cost 404
dest 5 via 5 cost 205
dest 6 via 6 cost 220
dest 7 via 7 cost 72
`
