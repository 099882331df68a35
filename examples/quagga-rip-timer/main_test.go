package main

import (
	"bytes"
	"testing"
)

// TestOutput pins the case study's whole printed output, line for line.
// Every line is a count or a virtual-time value, so the text is a function
// of the code alone: a refresh that matches on next hop, a changed RIP timer, or the tally printed in map order fails here.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	if got := out.String(); got != want {
		t.Errorf("output drifted:\n%s\nwant:\n%s", got, want)
	}
}

const want = `== Quagga 0.96.5 RIP timer-refresh bug (paper §4, Figure 5) ==

-- unmodified network (baseline, 40% announcement loss): outcome varies --
   black hole in 6/10 runs
   recovered/expired in 4/10 runs

-- DEFINED-RB (seed 1, with recorded losses) --
   production outcome: R1 route via R2 metric 1  ← BLACK HOLE (R2 is dead)
   recorded 20 external events (incl. message losses), 8 refreshes at R1

-- DEFINED-LS replay: step through the refresh-after-crash --
   breakpoint: node 0 ← [app 2:7 2→0 g24 o2 s6 d10.540ms c0]
   → R3's announcement refreshed the R2 route's timer (destination-only match): the bug
   replay outcome: R1 route via R2 metric 1  ← BLACK HOLE (R2 is dead)
   ✓ debugging network reproduced the production outcome exactly

-- patched daemon (next-hop-aware refresh) on the same recording --
   patched outcome: R1 route via R3 metric 2  ← recovered

✓ patch validated: route fails over to the backup after the timeout
`
