// Case study 1 (paper §4): the ordering bug in XORP 0.4's BGP path
// selection. The MED rule compares only paths from the same neighboring
// AS, which makes pairwise preference non-transitive: with the Figure 4
// path triple, p2 beats p1, p3 beats p2, and p1 beats p3. XORP 0.4
// compares an incoming path only against the current best, so the selected
// path depends on arrival order — a nondeterministic bug.
//
// This example reproduces the troubleshooting workflow: the bug appears
// intermittently on unmodified routers, deterministically under
// DEFINED-RB, is reproduced from the partial recording in a DEFINED-LS
// debugging network, located with a breakpoint, and the patch (the full
// decision process) is validated in the same debugging network.
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"defined"
	"defined/internal/routing/bgp"
)

const prefix = "10.0.0.0/8"

// figure4 builds the case-study network: border routers R1 (node 0) and
// R2 (node 1) peer with the external ASes; R3 (node 2) is the internal
// router that selects among the propagated paths.
func figure4() *defined.Topology {
	g, err := defined.NewTopology("figure4", 3, []defined.Link{
		{A: 0, B: 2, Delay: 10 * defined.Millisecond, Jitter: 400},
		{A: 1, B: 2, Delay: 10*defined.Millisecond + 300, Jitter: 400},
		{A: 0, B: 1, Delay: 15 * defined.Millisecond, Jitter: 400},
	})
	if err != nil {
		panic(err)
	}
	return g
}

func apps(mode bgp.Mode) []defined.Application {
	return []defined.Application{bgp.New(mode), bgp.New(mode), bgp.New(mode)}
}

// scenario injects the three eBGP announcements: p1 then p2 arrive at R1
// (from ER1/ER2), p3 at R2 (from ER3), closely spaced so their
// propagation to R3 races.
func scenario(net *defined.Network) {
	p1, p2, p3 := bgp.Figure4Paths(prefix)
	net.At(defined.Seconds(0.010), func() { net.InjectExternal(0, bgp.Announce{Path: p1}) })
	net.At(defined.Seconds(0.0105), func() { net.InjectExternal(1, bgp.Announce{Path: p3}) })
	net.At(defined.Seconds(0.011), func() { net.InjectExternal(0, bgp.Announce{Path: p2}) })
}

func bestAtR3(as []defined.Application) string {
	best, ok := as[2].(*bgp.Daemon).Best(prefix)
	if !ok {
		return "(none)"
	}
	return best.Name
}

func main() { run(os.Stdout) }

// run plays the case study, printing to w.
func run(w io.Writer) {
	g := figure4()
	yes, jitter := true, 4.0 // engine-block values (the block's fields are pointers)
	fmt.Fprintln(w, "== XORP 0.4 BGP MED ordering bug (paper §4, Figure 4) ==")
	fmt.Fprintln(w, "correct best path: p3 (full decision process)")

	// 1. Unmodified routers: the outcome depends on physical timing.
	fmt.Fprintln(w, "\n-- unmodified network (baseline): selection varies with timing --")
	outcomes := map[string]int{}
	for seed := uint64(0); seed < 10; seed++ {
		as := apps(bgp.XORP04)
		net := mustNet(g, as, defined.EngineSpec{Baseline: &yes, Seed: &seed, JitterScale: &jitter})
		scenario(net)
		net.Run(defined.Seconds(1))
		net.Drain()
		outcomes[bestAtR3(as)]++
	}
	for _, name := range slices.Sorted(maps.Keys(outcomes)) {
		fmt.Fprintf(w, "   R3 selected %s in %d/10 runs\n", name, outcomes[name])
	}

	// 2. Under DEFINED-RB the same scenario is deterministic: every run
	//    commits the same arrival order at R3, so the bug either always
	//    fires or never does — and here it always does.
	fmt.Fprintln(w, "\n-- DEFINED-RB: deterministic across seeds --")
	var rec *defined.Recording
	for seed := uint64(0); seed < 5; seed++ {
		as := apps(bgp.XORP04)
		net := mustNet(g, as, defined.EngineSpec{Seed: &seed, JitterScale: &jitter, Record: &yes})
		scenario(net)
		net.Run(defined.Seconds(1))
		net.Drain()
		fmt.Fprintf(w, "   seed %d: R3 selected %s (arrival order %v)\n",
			seed, bestAtR3(as), as[2].(*bgp.Daemon).ArrivalOrder(prefix))
		if rec == nil {
			rec = net.Recording()
		}
	}

	// 3. Reproduce in the debugging network from the partial recording,
	//    breaking on the delivery that corrupts the selection.
	fmt.Fprintln(w, "\n-- DEFINED-LS: reproduce from the partial recording --")
	as := apps(bgp.XORP04)
	rp, err := defined.NewReplay(g, as, rec)
	if err != nil {
		panic(err)
	}
	rp.SetBreakpoint(func(d defined.Delivery) bool {
		if d.Node != 2 || d.Msg == nil {
			return false
		}
		// Pause just before R3 processes the final update.
		return as[2].(*bgp.Daemon).PathCount(prefix) == 2
	})
	rp.RunToEnd()
	if hit := rp.BreakpointHit(); hit != nil {
		fmt.Fprintf(w, "   breakpoint: %v\n", hit)
		fmt.Fprintf(w, "   R3 state before the faulty comparison: best=%s, rib=%v\n",
			bestAtR3(as), as[2].(*bgp.Daemon).ArrivalOrder(prefix))
	}
	rp.SetBreakpoint(nil)
	rp.RunToEnd()
	fmt.Fprintf(w, "   after replay: R3 selected %s — bug reproduced deterministically\n", bestAtR3(as))

	// 4. Validate the patch in the debugging network: the fixed decision
	//    process re-runs the full selection and is order-independent.
	fmt.Fprintln(w, "\n-- patch validation: full decision process in the debugging network --")
	fixed := apps(bgp.Fixed)
	rp2, err := defined.NewReplay(g, fixed, rec)
	if err != nil {
		panic(err)
	}
	rp2.RunToEnd()
	fmt.Fprintf(w, "   patched R3 selected %s (want p3)\n", bestAtR3(fixed))
	if bestAtR3(fixed) == "p3" {
		fmt.Fprintln(w, "\n✓ patch validated; deterministic execution guarantees the same behaviour in production")
	}
}

// mustNet builds a network, exiting on a configuration error.
func mustNet(g *defined.Topology, apps []defined.Application, eng defined.EngineSpec) *defined.Network {
	net, err := defined.NewNetwork(g, apps, eng)
	if err != nil {
		panic(err)
	}
	return net
}
