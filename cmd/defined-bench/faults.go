package main

// The -preset chaos campaign: a seeded-random fault plan over Sprintlink
// OSPF, run through the public defined API on both the sequential and
// the sharded engine, with the fault-invariant pass and a cross-engine
// determinism comparison at the end. This is the command-line twin of
// TestFaultPlanGolden, sized for a CI smoke step.

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"time"

	"defined"
	"defined/internal/faults"
	"defined/internal/routing/ospf"
)

// chaosLoss / chaosDup are the per-link packet-fate probabilities the
// campaign composes with its plan faults. Kept low enough that flooding
// redundancy re-converges routing after the heal; which packets die is
// still a pure function of the seed.
const (
	chaosLoss = 0.002
	chaosDup  = 0.002
)

func runFaults(seed uint64, stdout, stderr io.Writer) int {
	g := defined.Sprintlink()
	plan := faults.Random(g, seed, faults.RandomConfig{
		Start: defined.Seconds(1), End: defined.Seconds(4),
	})
	horizon := plan.Horizon().Add(faults.ConvergenceSlack(g))
	fmt.Fprintf(stdout, "%s: %d plan events, horizon %.1fs, loss %.3f, dup %.3f\n",
		g.Name, plan.Len(), float64(horizon)/float64(defined.Second), chaosLoss, chaosDup)

	// Loss-free pass first: with every surviving packet delivered the
	// routing tables must re-converge to shortest paths on the healed
	// topology, so this run carries the route-coherence check. The lossy
	// runs below check engine invariants only — OSPF floods without
	// retransmit, so a loss draw on a heal-time LSA can legitimately
	// strand a stale route.
	fail := 0
	var fingerprints []uint64
	for _, leg := range []struct {
		shards int
		lossy  bool
	}{{4, false}, {0, true}, {4, true}} {
		start := time.Now()
		fp, rep, stats, err := chaosRun(g, plan, seed, leg.shards, leg.lossy)
		if err != nil {
			fmt.Fprintln(stderr, "defined-bench:", err)
			return 1
		}
		status := "ok"
		if !rep.Ok() {
			status = "FAIL"
			fail++
			fmt.Fprintf(stderr, "defined-bench: %v\n", rep.Err())
		}
		if !leg.lossy {
			fmt.Fprintf(stdout, "  loss-free  %-4s  crashes=%d restarts=%d routes re-converged  (%.1fs)\n",
				status, stats.NodeCrashes, stats.NodeRestarts, time.Since(start).Seconds())
			continue
		}
		fingerprints = append(fingerprints, fp)
		fmt.Fprintf(stdout, "  shards=%d  %-4s  crashes=%d restarts=%d drops(quarantine)=%d "+
			"winHW=%d poolLive=%d fingerprint=%016x  (%.1fs)\n",
			leg.shards, status, stats.NodeCrashes, stats.NodeRestarts,
			stats.QuarantinedDrops, rep.WindowHighWater, rep.PoolLive, fp,
			time.Since(start).Seconds())
	}
	if fingerprints[0] != fingerprints[1] {
		fail++
		fmt.Fprintf(stderr,
			"defined-bench: %s: committed execution diverged across shard counts under faults\n", g.Name)
	}
	if fail > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "chaos campaign passed: invariants held, executions bit-identical across engines")
	return 0
}

// chaosRun executes one faulted run and returns a fingerprint of its
// committed execution (delivery orders, routing tables, engine counters),
// the invariant report and the engine stats. Route coherence is asserted
// only when lossy is false — see runFaults.
func chaosRun(g *defined.Topology, plan *faults.Plan, seed uint64, shards int, lossy bool) (uint64, *faults.Report, defined.Stats, error) {
	apps := make([]defined.Application, g.N)
	for i := range apps {
		apps[i] = ospf.New(ospf.Config{})
	}
	yes, loss, dup := true, chaosLoss, chaosDup
	eng := defined.EngineSpec{Seed: &seed, DeliveryLog: &yes, Shards: &shards, Lookahead: &yes}
	if lossy {
		eng.PerLinkLoss, eng.Duplication = &loss, &dup
	}
	net, err := defined.NewNetwork(g, apps, eng)
	if err != nil {
		return 0, nil, defined.Stats{}, err
	}
	net.ScheduleFaults(plan)
	net.Run(plan.Horizon().Add(faults.ConvergenceSlack(g)))
	net.Drain()

	cfg := faults.CheckConfig{}
	if !lossy {
		cfg.Routes = ospfRoutes(net)
	}
	rep := net.CheckFaults(cfg)
	h := fnv.New64a()
	for i := 0; i < g.N; i++ {
		for _, k := range net.CommittedOrder(defined.NodeID(i)) {
			fmt.Fprintln(h, k)
		}
		fmt.Fprintln(h, routingTableString(net, defined.NodeID(i)))
	}
	stats := net.Stats()
	fmt.Fprintf(h, "%+v", stats)
	return h.Sum64(), rep, stats, nil
}

// ospfRoutes adapts the network's OSPF daemons to the checker's
// RouteReader.
func ospfRoutes(net *defined.Network) faults.RouteReader {
	return func(src, dst defined.NodeID) (int64, bool) {
		r, ok := net.App(src).(*ospf.Daemon).RoutingTable()[dst]
		return int64(r.Cost), ok
	}
}

// routingTableString renders node id's routing table in sorted
// destination order (fingerprint input).
func routingTableString(net *defined.Network, id defined.NodeID) string {
	table := net.App(id).(*ospf.Daemon).RoutingTable()
	dsts := make([]int, 0, len(table))
	for d := range table {
		dsts = append(dsts, int(d))
	}
	sort.Ints(dsts)
	s := fmt.Sprintf("n%d:", id)
	for _, d := range dsts {
		r := table[defined.NodeID(d)]
		s += fmt.Sprintf(" %d->%d/%d", d, r.NextHop, r.Cost)
	}
	return s
}
