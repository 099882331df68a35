package defined

import (
	"fmt"

	"defined/internal/faults"
	"defined/internal/msg"
	"defined/internal/ordering"
	"defined/internal/rollback"
	"defined/internal/scenario"
	"defined/internal/vtime"
)

// Network is a production network instrumented by DEFINED-RB (or running
// bare when the engine block sets baseline).
type Network struct {
	eng *rollback.Engine
	g   *Topology
}

// NewNetwork builds a production network over g with one application per
// node (len(apps) == g.N). eng is the engine block of a scenario file,
// written as a literal: nil fields take the documented defaults, and the
// block resolves and validates exactly as Spec.Resolve does it, so
// contradictory combinations (Baseline with Shards, poison without the
// pool, inert lookahead, ...) return the same error instead of being
// silently ignored.
func NewNetwork(g *Topology, apps []Application, eng EngineSpec) (*Network, error) {
	if len(apps) != g.N {
		return nil, fmt.Errorf("defined: %d applications for the %d nodes of %s", len(apps), g.N, g.Name)
	}
	resolved, err := scenario.ResolveEngine(eng)
	if err != nil {
		return nil, err
	}
	return &Network{eng: rollback.New(g, apps, resolved), g: g}, nil
}

// ScheduleFaults schedules a fault-injection plan (node crashes and
// restarts, link cuts and heals, partitions — see internal/faults) to
// execute during the run; a nil plan schedules nothing. Every plan event
// fires on the driver queue as an ordinary external event: recorded,
// ordered and rollback-capable, so a faulted run commits bit-identical
// orders under any shard count (proved by TestFaultPlanGolden). On a
// baseline engine crash faults are no-ops (there is no substrate to
// quarantine); link events still apply. A faulted run's recording does not
// replay: a crash is not recorded and DEFINED-LS has no crash model, which
// is why a scenario rejects a fault plan with record on.
func (n *Network) ScheduleFaults(p *faults.Plan) {
	if p != nil {
		p.Schedule(n.eng, n.At)
	}
}

// Run advances the network to virtual time until.
func (n *Network) Run(until Time) { n.eng.Run(until) }

// Drain processes all pending events until the network quiesces; it
// reports whether quiescence was reached within the internal event budget
// (Theorem 2 guarantees it for finite inputs).
func (n *Network) Drain() bool { return n.eng.RunQuiescent(50_000_000) }

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.eng.Now() }

// At schedules fn at virtual time t (scenario drivers inject external
// events from such callbacks).
func (n *Network) At(t Time, fn func()) { n.eng.Sim().ScheduleFn(t, fn) }

// InjectExternal applies (and records) an external event at node id.
func (n *Network) InjectExternal(id NodeID, ev ExternalEvent) {
	n.eng.InjectExternal(id, ev)
}

// InjectLinkChange fails or repairs the a-b link, notifying both
// endpoints.
func (n *Network) InjectLinkChange(a, b int, up bool) error {
	return n.eng.InjectLinkChange(a, b, up)
}

// App returns node id's application for inspection.
func (n *Network) App(id NodeID) Application { return n.eng.App(id) }

// Recording returns the captured partial recording (nil unless the engine
// block set record).
func (n *Network) Recording() *Recording { return n.eng.Recording() }

// Stats is the engine's counter block (rollbacks, anti-messages, crash
// faults, ...).
type Stats = rollback.Stats

// Stats returns engine counters (rollbacks, anti-messages, ...).
func (n *Network) Stats() Stats { return n.eng.Stats() }

// MessagePool exposes the wire-message pool (lifecycle tests read its
// violation, quarantine and live counters).
func (n *Network) MessagePool() *msg.Pool { return n.eng.Sim().Pool() }

// PoolViolations sums lifecycle-violation counts across every message
// pool in the simulator — the driver pool plus, on a sharded engine, each
// shard's lane pool.
func (n *Network) PoolViolations() uint64 { return n.eng.Sim().PoolViolations() }

// WindowStats reports the parallel engine's phase counters: windows is
// how many parallel windows ran (each ends at one commit barrier),
// serialSteps how many events fell back to one-at-a-time serial
// execution. Both are zero on the sequential engine. Fewer windows for
// the same workload means wider windows — fewer barrier crossings — which
// is the quantity per-link lookahead (engine.lookahead) exists to shrink.
func (n *Network) WindowStats() (windows, serialSteps uint64) {
	s := n.eng.Sim()
	return s.Windows(), s.SerialSteps()
}

// CommittedOrder returns node id's committed delivery sequence rendered as
// strings (the settled prefix is kept only when the engine block set
// deliveryLog).
func (n *Network) CommittedOrder(id NodeID) []string {
	return keyStrings(n.eng.CommittedKeys(id))
}

// keyStrings renders a delivery sequence one key per string, the form
// CommittedOrder and Replay.DeliveredOrder share.
func keyStrings(keys []ordering.Key) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// PacketsReceived reports how many packets node id has received.
func (n *Network) PacketsReceived(id NodeID) uint64 {
	return n.eng.Sim().Stats(id).Received
}

// ResetPacketCounters zeroes traffic counters (per-event overhead
// measurements).
func (n *Network) ResetPacketCounters() { n.eng.Sim().ResetStats() }

// Crashed reports whether node id is currently crash-quarantined (crashed
// by a fault plan or a recovered handler panic, and not yet restarted).
func (n *Network) Crashed(id NodeID) bool { return n.eng.Crashed(id) }

// CheckFaults runs the fault-injection invariant pass over the (typically
// quiescent) network: settle-violation and pool-lifecycle counters,
// message-reference leak accounting, history-window high-water bounds and
// — when cfg.Routes is set — post-heal route coherence against shortest
// paths over the current topology state. See faults.Check.
func (n *Network) CheckFaults(cfg faults.CheckConfig) *faults.Report {
	return faults.Check(n.eng, n.g, cfg)
}

// Millisecond re-exports the virtual millisecond.
const Millisecond = vtime.Millisecond

// Second re-exports the virtual second.
const Second = vtime.Second
