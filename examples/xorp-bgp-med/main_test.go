package main

import (
	"bytes"
	"testing"
)

// TestOutput pins the case study's whole printed output, line for line.
// Every line is a count or a virtual-time value, so the text is a function
// of the code alone: a flipped MED tie-break, a changed arrival order at R3, or the tally printed in map order fails here.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	if got := out.String(); got != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", got, want)
	}
}

const want = `== XORP 0.4 BGP MED ordering bug (paper §4, Figure 4) ==
correct best path: p3 (full decision process)

-- unmodified network (baseline): selection varies with timing --
   R3 selected p2 in 7/10 runs
   R3 selected p3 in 3/10 runs

-- DEFINED-RB: deterministic across seeds --
   seed 0: R3 selected p2 (arrival order [p1 p3 p2])
   seed 1: R3 selected p2 (arrival order [p1 p3 p2])
   seed 2: R3 selected p2 (arrival order [p1 p3 p2])
   seed 3: R3 selected p2 (arrival order [p1 p3 p2])
   seed 4: R3 selected p2 (arrival order [p1 p3 p2])

-- DEFINED-LS: reproduce from the partial recording --
   breakpoint: node 2 ← [app 0:4 0→2 g0 o0 s3 d21.140ms c0]
   R3 state before the faulty comparison: best=p1, rib=[p1 p3]
   after replay: R3 selected p2 — bug reproduced deterministically

-- patch validation: full decision process in the debugging network --
   patched R3 selected p3 (want p3)

✓ patch validated; deterministic execution guarantees the same behaviour in production
`
