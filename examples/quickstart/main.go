// Quickstart: describe a small OSPF scenario declaratively, run it under
// DEFINED-RB across several physical timing seeds, observe that the
// committed execution is bit-identical, record it, and reproduce it
// exactly in a DEFINED-LS debugging network.
package main

import (
	"fmt"
	"io"
	"os"
	"reflect"

	"defined"
	"defined/internal/routing/ospf"
	"defined/internal/scenario"
	"defined/internal/vtime"
)

// spec is the declarative scenario: an 8-router scale-free OSPF network.
// Everything left unset — ordering, checkpoint strategy, deferral —
// resolves to the documented production defaults. The same JSON form can
// live in a committed file and run with `defined-bench -scenario`.
func spec(seed uint64) defined.Spec {
	topoSeed, jitter, yes := uint64(1), 3.0, true
	return defined.Spec{
		Name:      "quickstart",
		Topology:  scenario.TopologyRef{Kind: "brite", Nodes: 8, Seed: &topoSeed},
		Protocols: scenario.ProtocolSpec{OSPF: &scenario.OSPFSpec{}},
		Engine: scenario.EngineSpec{
			Seed:        &seed,
			JitterScale: &jitter,
			Record:      &yes,
			DeliveryLog: &yes,
		},
		Horizon: scenario.HorizonSpec{Run: scenario.Duration(2 * vtime.Second)},
	}
}

func main() { run(os.Stdout) }

// run executes the walkthrough and prints it to w.
func run(w io.Writer) {
	// Resolve once to discover the generated topology (expansion is a pure
	// function of the spec, so every seed sees the same graph).
	r0, err := spec(1).Resolve()
	if err != nil {
		panic(err)
	}
	p0, err := r0.Expand()
	if err != nil {
		panic(err)
	}
	g := p0.Graph
	l := g.Links[0]
	fmt.Fprintf(w, "topology: %s\nplan fingerprint: %#x\n\n", g, p0.Fingerprint())

	// Run the same scenario — a link failure and repair — under three
	// different physical-jitter seeds. Arrival interleavings differ;
	// DEFINED-RB masks them so the committed order never does. The link
	// events ride on the spec's timeline, so each run needs no manual
	// scheduling.
	var firstOrder [][]string
	var rec *defined.Recording
	for seed := uint64(1); seed <= 3; seed++ {
		s := spec(seed)
		down, up := false, true
		s.Events = []scenario.EventSpec{
			{At: scenario.Duration(20 * vtime.Millisecond), Kind: "link-change", A: &l.A, B: &l.B, Up: &down},
			{At: scenario.Duration(700 * vtime.Millisecond), Kind: "link-change", A: &l.A, B: &l.B, Up: &up},
		}
		r, err := s.Resolve()
		if err != nil {
			panic(err)
		}
		p, err := r.Expand()
		if err != nil {
			panic(err)
		}
		net := defined.NewNetworkFromPlan(p)
		net.RunPlan(p)

		st := net.Stats()
		fmt.Fprintf(w, "seed %d: %4d deliveries, %3d rollbacks, %3d anti-messages\n",
			seed, st.Deliveries, st.Rollbacks, st.AntiMessages)

		orders := make([][]string, g.N)
		for i := 0; i < g.N; i++ {
			orders[i] = net.CommittedOrder(defined.NodeID(i))
		}
		if firstOrder == nil {
			firstOrder = orders
			rec = net.Recording()
		} else if !reflect.DeepEqual(firstOrder, orders) {
			fmt.Fprintln(w, "!! committed orders diverged — determinism broken")
			return
		}
	}
	fmt.Fprintln(w, "\n✓ committed delivery order identical across all seeds (DEFINED-RB)")

	// Replay the partial recording in a debugging network (fresh daemons
	// from the same plan).
	rp, err := defined.NewReplay(g, p0.Apps(), rec)
	if err != nil {
		panic(err)
	}
	n := rp.RunToEnd()
	same := true
	for i := 0; i < g.N; i++ {
		if !reflect.DeepEqual(firstOrder[i], rp.DeliveredOrder(defined.NodeID(i))) {
			same = false
		}
	}
	fmt.Fprintf(w, "✓ DEFINED-LS replayed %d deliveries from %d recorded external events\n",
		n, len(rec.Events))
	if same {
		fmt.Fprintln(w, "✓ replay reproduced the production execution exactly (Theorem 1)")
	} else {
		fmt.Fprintln(w, "!! replay diverged")
	}

	// The replayed routers hold the same routing state the production
	// network converged to.
	d0 := rp.App(0).(*ospf.Daemon)
	fmt.Fprintf(w, "\nnode 0's routing table after replay:\n%s", d0.DumpTable())
}
