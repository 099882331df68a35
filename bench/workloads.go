package main

// The workload generator: (name, seed) → scenario.Spec, built in code with
// every engine field explicit. The seed draws only which links flap and in
// what order; topologies, engine jitter seed, flap times and horizons are
// fixed, so every seed runs the same amount of work and the engine receives
// nothing but the generated Spec.

import (
	"fmt"

	"defined/internal/rng"
	"defined/internal/scenario"
	"defined/internal/topology"
	"defined/internal/vtime"
)

// engineSeed is the jitter seed of every workload; topoSeed seeds the two
// generated topologies. Neither follows -seed: the workload seed varies the
// inputs, not the network.
const (
	engineSeed = 42
	topoSeed   = 42
)

// workload is one row of the benchmark: a named input set, the engine it
// runs on and the reason it exists (printed by the glossary and copied
// into BENCHMARK.json).
type workload struct {
	name string
	why  string
	// build returns the scenario for one generator seed.
	build func(seed uint64) scenario.Spec
	// replay marks the lockstep workload: its timed interval is the
	// StepRound loop over a recording of the spec's production run.
	replay bool
	// sharded marks the workload on the parallel engine, whose allocation
	// count moves with goroutine interleaving.
	sharded bool
	// flat marks single-protocol OSPF workloads, where the invariant
	// checker's Dijkstra oracle covers every pair.
	flat bool
	// sameOrderAs names the workload whose committed count, committed
	// order and final routing tables this one must reproduce on every seed.
	sameOrderAs string
	// sameTablesAs names the workload whose final routing tables this one
	// must reproduce when its order is not comparable: the reference
	// engine's TF timing charges 400 µs per message against TM's 40 µs, so
	// its d_i ordering keys — and with them the committed order — differ
	// from the default engine's by design.
	sameTablesAs string
}

var workloads = []workload{
	{
		name: "sprint_flap", flat: true,
		why:   "Sprintlink OSPF, every link flapped once (102 flaps), default engine: engine-dominated, per-delivery eventq/netsim/rollback overhead shows here",
		build: func(seed uint64) scenario.Spec { return sprintFlap("sprint_flap", seed, defaultEngine(0)) },
	},
	{
		name: "sprint_flap_ref", flat: true, sameTablesAs: "sprint_flap",
		why:   "same inputs on the reference engine (eager, TF/FK): undo/replay/anti-message and full-clone checkpoint cost; deferral or lookahead work must not move it",
		build: func(seed uint64) scenario.Spec { return sprintFlap("sprint_flap_ref", seed, referenceEngine()) },
	},
	{
		name: "brite150_flap", flat: true,
		why:   "BRITE 150 nodes OSPF, 16 flaps, default engine: daemon-dominated (SPF and route-cache misses); engine-layer work should not show",
		build: briteFlap,
	},
	{
		name:  "hier2k_mixed",
		why:   "1,928-router OSPF+BGP+RIP hierarchy, 16 intra-AS flaps: scaled stand-in for a hier10k run; setup, live heap, clone-fallback checkpoints and GC matter",
		build: func(seed uint64) scenario.Spec { return hierMixed("hier2k_mixed", seed, 0) },
	},
	{
		name: "hier2k_shards2", sharded: true, sameOrderAs: "hier2k_mixed",
		why:   "identical plan on shards=2: the same layers through lanes, barrier and merge; on 2 shared cores this is sharding overhead, not its ceiling",
		build: func(seed uint64) scenario.Spec { return hierMixed("hier2k_shards2", seed, 2) },
	},
	{
		name: "sprint_replay", flat: true, replay: true, sameOrderAs: "sprint_flap",
		why: "lockstep replay of sprint_flap's recording, one StepRound at a time: the debugger's step latency; no rollback layer at all",
		build: func(seed uint64) scenario.Spec {
			e := defaultEngine(0)
			e.Record = ptr(true)
			return sprintFlap("sprint_replay", seed, e)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func ptr[T any](v T) *T { return &v }

// defaultEngine is the ROADMAP's "default" engine with every field
// written out: Resolve would default lookahead to false, which is not it.
func defaultEngine(shards int) scenario.EngineSpec {
	return scenario.EngineSpec{
		Baseline:     ptr(false),
		Ordering:     "OO",
		OrderingSeed: ptr(uint64(engineSeed)),
		Strategy:     "TM/MI",
		Seed:         ptr(uint64(engineSeed)),
		JitterScale:  ptr(1.0),
		ChainBound:   ptr(64),
		SettleBound:  scenario.Dur(0),
		Deferral:     ptr(true),
		DeferSlack:   scenario.Dur(8 * vtime.Millisecond),
		DeferMax:     scenario.Dur(100 * vtime.Millisecond),
		Shards:       ptr(shards),
		Lookahead:    ptr(true),
		PerLinkLoss:  ptr(0.0),
		Duplication:  ptr(0.0),
		MessagePool:  ptr(true),
		RouteCache:   ptr(true),
		Poison:       ptr(false),
		Record:       ptr(false),
		DeliveryLog:  ptr(false),
	}
}

// referenceEngine is the paper's cost point TestFigureMetricsGolden pins:
// eager delivery, full-clone checkpoints before every delivery.
func referenceEngine() scenario.EngineSpec {
	e := defaultEngine(0)
	e.Strategy = "TF/FK"
	e.Deferral = ptr(false)
	e.Lookahead = ptr(false)
	return e
}

func ospfSpec() *scenario.OSPFSpec {
	return &scenario.OSPFSpec{
		HelloInterval: scenario.Dur(vtime.Second),
		DeadInterval:  scenario.Dur(4 * vtime.Second),
		FloodHolddown: scenario.Dur(0),
	}
}

// Flap timing shared by the flat workloads: one flap every 1.2 s from 2 s
// on (the boot flood has drained by then), the link up again 0.6 s later.
// The seed decides which link flaps in which slot and nothing else: a
// seeded offset inside the slot moved live_heap_mb by 3 % between seeds,
// because what is still retained at the end depends on how long before
// the horizon the last flap healed.
const (
	flapStart  = 2 * vtime.Second
	flapPeriod = 1200 * vtime.Millisecond
	flapDown   = 600 * vtime.Millisecond
)

func linkFlap(at vtime.Duration, l topology.Link) []scenario.EventSpec {
	a, b := l.A, l.B
	return []scenario.EventSpec{
		{At: scenario.Duration(at), Kind: "link-change", A: &a, B: &b, Up: ptr(false)},
		{At: scenario.Duration(at + flapDown), Kind: "link-change", A: &a, B: &b, Up: ptr(true)},
	}
}

// pickLinks draws n links, one from each of n equal strata of the link
// list, and shuffles them. The generators emit links core-first, so a
// stratum holds links of like weight and every seed flaps a like mix of
// core and edge links: the seed moves which links flap and in what order,
// not how much work a rep is. A plain draw over the whole list would make
// the per-delivery cost of two seeds differ by more than the regression
// bounds.
func pickLinks(r *rng.Source, links []topology.Link, n int) []topology.Link {
	out := make([]topology.Link, n)
	for i := range out {
		lo, hi := i*len(links)/n, (i+1)*len(links)/n
		out[i] = links[lo+r.Intn(hi-lo)]
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// slottedFlaps flaps n links, one per slot.
func slottedFlaps(r *rng.Source, links []topology.Link, n int) []scenario.EventSpec {
	var evs []scenario.EventSpec
	for i, l := range pickLinks(r, links, n) {
		evs = append(evs, linkFlap(flapStart+vtime.Duration(i)*flapPeriod, l)...)
	}
	return evs
}

func flatHorizon(flaps int) scenario.HorizonSpec {
	return scenario.HorizonSpec{
		Run:   scenario.Duration(flapStart + vtime.Duration(flaps)*flapPeriod),
		Drain: ptr(true),
	}
}

// sprintFlap flaps every Sprintlink link once, in seeded order: with the
// link set fixed the seed moves only order and timing. Flapping a seeded
// 64 of the 102 links made allocs_per_committed differ by 4.6 % between
// seeds, most of its 5 % bound, with no change to the code under test.
func sprintFlap(name string, seed uint64, eng scenario.EngineSpec) scenario.Spec {
	links := topology.Sprintlink().Links
	r := rng.New(seed).Derive("sprint-flaps")
	return scenario.Spec{
		Name:      name,
		Topology:  scenario.TopologyRef{Kind: "sprintlink"},
		Protocols: scenario.ProtocolSpec{OSPF: ospfSpec()},
		Engine:    eng,
		Events:    slottedFlaps(r, links, len(links)),
		Horizon:   flatHorizon(len(links)),
	}
}

func briteFlap(seed uint64) scenario.Spec {
	const nodes, degree, flaps = 150, 2, 16
	r := rng.New(seed).Derive("brite-flaps")
	return scenario.Spec{
		Name:      "brite150_flap",
		Topology:  scenario.TopologyRef{Kind: "brite", Nodes: nodes, Degree: degree, Seed: ptr(uint64(topoSeed))},
		Protocols: scenario.ProtocolSpec{OSPF: ospfSpec()},
		Engine:    defaultEngine(0),
		Events:    slottedFlaps(r, topology.Brite(nodes, degree, topoSeed).Links, flaps),
		Horizon:   flatHorizon(flaps),
	}
}

// hierConfig is hier10k's shape at a fifth of its AS count: 1,928 routers.
var hierConfig = topology.HierConfig{
	ASes: 32, ASDegree: 2,
	MinRouters: 40, MaxRouters: 90, RouterDegree: 2,
	StubFrac: 0.5, StubLen: 2,
	Seed: topoSeed,
}

func hierMixed(name string, seed uint64, shards int) scenario.Spec {
	const flaps = 16
	h, err := topology.Hier(hierConfig)
	if err != nil {
		panic(fmt.Sprintf("bench: hier config: %v", err))
	}
	// OSPF links only: both ends in one AS and neither a RIP stub.
	var intra []topology.Link
	for _, l := range h.Links {
		if h.AS[l.A] == h.AS[l.B] && h.Role[l.A] != topology.RoleStub && h.Role[l.B] != topology.RoleStub {
			intra = append(intra, l)
		}
	}
	// Flaps land after the plan's own originates (1 s) and announces (2 s),
	// 90 ms apart from 2.5 s, and heal before the 5 s horizon.
	r := rng.New(seed).Derive("hier-flaps")
	var evs []scenario.EventSpec
	for i, l := range pickLinks(r, intra, flaps) {
		evs = append(evs, linkFlap(2500*vtime.Millisecond+vtime.Duration(i)*90*vtime.Millisecond, l)...)
	}
	cfg := hierConfig
	return scenario.Spec{
		Name:     name,
		Topology: scenario.TopologyRef{Kind: "hier", Hier: &cfg},
		Protocols: scenario.ProtocolSpec{
			OSPF: ospfSpec(),
			BGP:  &scenario.BGPSpec{Mode: "xorp04"},
			RIP: &scenario.RIPSpec{
				Mode:           "quagga0965",
				UpdateInterval: scenario.Dur(2 * vtime.Second),
				Timeout:        scenario.Dur(180 * vtime.Second),
				SplitHorizon:   ptr(false),
			},
		},
		Engine:  defaultEngine(shards),
		Events:  evs,
		Horizon: scenario.HorizonSpec{Run: scenario.Duration(5 * vtime.Second), Drain: ptr(true)},
	}
}
