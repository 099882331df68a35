// Case study 2 (paper §4): the timing bug in Quagga 0.96.5's RIP route
// timer refresh. When comparing an incoming announcement with an installed
// route, Quagga matched only the destination — not the next hop — so
// announcements from a backup router refresh the timer of the route
// through the dead main router. If the backup's announcement reaches R1
// before the stale route times out, the dead route is refreshed forever: a
// permanent black hole (Figure 5).
//
// The example shows the workflow: with unmodified routers and lossy links
// the outcome flips run to run; DEFINED-RB makes each run deterministic
// and reproducible from its partial recording; the debugging network
// replays the black hole exactly, timers firing deterministically while
// stepping; the fixed daemon recovers.
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"defined"
	"defined/internal/routing/rip"
)

const prefix = "10.9.0.0/16"

// figure5 builds R1 (node 0) connected to the main router R2 (node 1) and
// the backup R3 (node 2).
func figure5() *defined.Topology {
	g, err := defined.NewTopology("figure5", 3, []defined.Link{
		{A: 0, B: 1, Delay: 5 * defined.Millisecond, Jitter: 300},
		{A: 0, B: 2, Delay: 5*defined.Millisecond + 200, Jitter: 300},
	})
	if err != nil {
		panic(err)
	}
	return g
}

// apps builds the three routers. RIP expires a route after six missed
// 30 s updates; the case study runs 1 s updates and expires after three
// missed ones, so that 40% loss can still tip the race between R3's
// announcements and R1's timeout.
func apps(mode rip.Mode) []defined.Application {
	cfg := rip.Config{
		Mode:           mode,
		UpdateInterval: defined.Second,
		Timeout:        3 * defined.Second,
	}
	return []defined.Application{rip.New(cfg), rip.New(cfg), rip.New(cfg)}
}

// scenario: both R2 (metric 0 → R1 installs via R2 at metric 1) and R3
// (metric 1 → via R3 at metric 2) originate the destination; R2 crashes
// silently at t=6s, after six update periods, so R1 has had six chances
// to learn the route through R2 across the lossy link (at 40% loss, one
// run in sixteen loses three in a row, and a run where R1 never routes
// through R2 cannot black-hole). Only announcements keep routes alive —
// the crash is invisible except through missed updates.
func scenario(net *defined.Network) {
	net.At(defined.Seconds(0.05), func() { net.InjectExternal(1, rip.Originate{Prefix: prefix, Metric: 0}) })
	net.At(defined.Seconds(0.06), func() { net.InjectExternal(2, rip.Originate{Prefix: prefix, Metric: 1}) })
	net.At(defined.Seconds(6.0), func() { net.InjectExternal(1, rip.Crash{}) })
}

func routeAtR1(as []defined.Application) string {
	nh, metric, ok := as[0].(*rip.Daemon).Route(prefix)
	if !ok {
		return "(no route)"
	}
	switch nh {
	case 1:
		return fmt.Sprintf("via R2 metric %d  ← BLACK HOLE (R2 is dead)", metric)
	case 2:
		return fmt.Sprintf("via R3 metric %d  ← recovered", metric)
	default:
		return fmt.Sprintf("via %d metric %d", nh, metric)
	}
}

func main() { run(os.Stdout) }

// run plays the case study, printing to w.
func run(w io.Writer) {
	g := figure5()
	yes, loss := true, 0.4 // engine-block values (the block's fields are pointers)
	fmt.Fprintln(w, "== Quagga 0.96.5 RIP timer-refresh bug (paper §4, Figure 5) ==")

	// 1. Unmodified routers over lossy links: whether the black hole
	//    forms depends on whether a backup announcement slips in before
	//    the timeout — it varies run to run.
	fmt.Fprintln(w, "\n-- unmodified network (baseline, 40% announcement loss): outcome varies --")
	outcomes := map[string]int{}
	for seed := uint64(0); seed < 10; seed++ {
		as := apps(rip.Quagga0965)
		net := mustNet(g, as, defined.EngineSpec{Baseline: &yes, Seed: &seed, PerLinkLoss: &loss})
		scenario(net)
		net.Run(defined.Seconds(12))
		net.Drain()
		key := "black hole"
		if nh, _, ok := as[0].(*rip.Daemon).Route(prefix); !ok || nh != 1 {
			key = "recovered/expired"
		}
		outcomes[key]++
	}
	for _, k := range slices.Sorted(maps.Keys(outcomes)) {
		fmt.Fprintf(w, "   %s in %d/10 runs\n", k, outcomes[k])
	}

	// 2. DEFINED-RB: the same lossy scenario is reproducible — losses are
	//    recorded as external events, so each production run can be
	//    replayed exactly.
	fmt.Fprintln(w, "\n-- DEFINED-RB (seed 1, with recorded losses) --")
	as := apps(rip.Quagga0965)
	seed := uint64(1)
	net := mustNet(g, as, defined.EngineSpec{Seed: &seed, PerLinkLoss: &loss, Record: &yes, DeliveryLog: &yes})
	scenario(net)
	net.Run(defined.Seconds(12))
	net.Drain()
	rec := net.Recording()
	fmt.Fprintf(w, "   production outcome: R1 route %s\n", routeAtR1(as))
	fmt.Fprintf(w, "   recorded %d external events (incl. message losses), %d refreshes at R1\n",
		len(rec.Events), as[0].(*rip.Daemon).Refreshes())

	// 3. Replay in the debugging network: timers fire deterministically
	//    while stepping (no "timers going off unexpectedly" as with gdb).
	fmt.Fprintln(w, "\n-- DEFINED-LS replay: step through the refresh-after-crash --")
	as2 := apps(rip.Quagga0965)
	rp, err := defined.NewReplay(g, as2, rec)
	if err != nil {
		panic(err)
	}
	crashed := false
	rp.SetBreakpoint(func(d defined.Delivery) bool {
		// Pause on the first backup announcement R1 processes after the
		// crash — the delivery that wrongly refreshes the dead route.
		if !crashed {
			crashed = as2[1].(*rip.Daemon).Crashed()
		}
		return crashed && d.Node == 0 && d.Msg != nil && d.Msg.From == 2
	})
	rp.RunToEnd()
	if hit := rp.BreakpointHit(); hit != nil {
		before := as2[0].(*rip.Daemon).Refreshes()
		nh, _, viaR2 := as2[0].(*rip.Daemon).Route(prefix)
		viaR2 = viaR2 && nh == 1
		fmt.Fprintf(w, "   breakpoint: %v\n", hit)
		rp.SetBreakpoint(nil)
		rp.StepEvent() // deliver the announcement
		after := as2[0].(*rip.Daemon).Refreshes()
		if viaR2 && after > before {
			fmt.Fprintln(w, "   → R3's announcement refreshed the R2 route's timer (destination-only match): the bug")
		}
	}
	rp.RunToEnd()
	fmt.Fprintf(w, "   replay outcome: R1 route %s\n", routeAtR1(as2))
	match := routeAtR1(as) == routeAtR1(as2)
	if match {
		fmt.Fprintln(w, "   ✓ debugging network reproduced the production outcome exactly")
	}

	// 4. The fix — match destination AND next hop — recovers.
	fmt.Fprintln(w, "\n-- patched daemon (next-hop-aware refresh) on the same recording --")
	fixed := apps(rip.FixedMode)
	rp2, err := defined.NewReplay(g, fixed, rec)
	if err != nil {
		panic(err)
	}
	rp2.RunToEnd()
	fmt.Fprintf(w, "   patched outcome: R1 route %s\n", routeAtR1(fixed))
	if nh, _, ok := fixed[0].(*rip.Daemon).Route(prefix); ok && nh == 2 {
		fmt.Fprintln(w, "\n✓ patch validated: route fails over to the backup after the timeout")
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
