package rollback

// Crash-fault primitives: CrashNode/RestartNode are the engine half of the
// fault-injection subsystem (internal/faults drives them through plans).
// A crash models fail-stop process death with total state loss — the
// paper's determinism claim (Theorem 1) extends to it because the crash
// executes as an ordinary driver-serial event: given the same plan, the
// quarantine tears down the same state at the same point of the committed
// order under any shard count, and everything it mutates is shim- or
// lane-local, which is also what lets a recovered handler panic apply the
// same quarantine from inside a parallel window.

import (
	"defined/internal/annotate"
	"defined/internal/msg"
	"defined/internal/routing/api"
)

// quarantine severs the shim from the run, modeling a crash's state loss:
// each layer resets in the fixed order, releasing every message reference
// it held. In-flight traffic is untouched — packets this node already
// transmitted left before the crash and still deliver; packets toward it
// are dropped by whoever owns that decision (netsim's doomed path for a
// real crash, this shim's own entry guards for a panic quarantine).
// Deliberately kept: the drop log (recorded losses happened), the settle
// layer (the committed prefix is history, not node state), and the
// external-sequence and sender counters (key uniqueness must span
// incarnations). Every mutation is shim- or lane-local, so quarantining is
// legal inside a parallel window (panic recovery) as well as from the
// driver (CrashNode).
func (sh *shim) quarantine() {
	sh.crashed = true
	sh.look.reset()
	sh.pend.reset()
	sh.win.reset()
	sh.ledger.reset()
}

// CrashNode applies a crash fault to node n: the shim is quarantined and
// the simulator marks the node down, so in-flight arrivals toward it
// become delivery-time drops (recorded against their senders, exactly
// like link-loss drops) and new sends to or from it fail at send time.
// Driver-only — fault plans schedule crashes through the driver queue, so
// in sharded mode the crash lands between windows at the same point of
// the committed order as in the sequential engine. Idempotent; no-op for
// Baseline engines (no shim layer to quarantine).
func (e *Engine) CrashNode(n msg.NodeID) {
	sh := e.shims[n]
	if e.baseline || sh.crashed {
		return
	}
	e.stats.NodeCrashes++
	sh.quarantine()
	e.sim.SetNodeState(n, false)
}

// RestartNode revives a crashed node: the simulator marks it up and the
// application re-Inits from scratch — nothing from before the crash
// survives in the daemon, which is the point of a crash fault. The undo
// journals compact after Init (boot-time mutations precede every
// checkpoint of the new incarnation, the same discipline New applies),
// and the substrate re-syncs the neighborhood: the fresh daemon is told
// which adjacent links are currently down (Init assumes them all up),
// then every reachable neighbor receives a PeerRestart external so
// protocols can push back state the restarted node cannot quickly
// recover on its own (e.g. its own stale LSA sequence number). Sender
// counters deliberately survive: wire IDs and ordering keys must stay
// unique and monotone across incarnations for the ordering function and
// the anti-message protocol to keep working. Driver-only, like
// CrashNode; no-op unless the node is crashed. Works for both crash
// kinds — a panic quarantine leaves the node up at the simulator, and
// SetNodeState(up) is then idempotent.
func (e *Engine) RestartNode(n msg.NodeID) {
	sh := e.shims[n]
	if e.baseline || !sh.crashed {
		return
	}
	e.stats.NodeRestarts++
	e.sim.SetNodeState(n, true)
	sh.crashed = false
	sh.app.Init(n, annotate.Neighbors(e.G, n))
	sh.win.compactJournals()
	// Neighbor re-sync, in sorted neighbor order for determinism: first
	// the restarted node learns its dead adjacent links, then live
	// neighbors learn about the restart. Both are ordinary externals —
	// recorded, ordered, rollback-capable like any other.
	for _, nb := range e.G.Neighbors(int(n)) {
		if !e.sim.LinkState(int(n), nb) {
			e.InjectExternal(n, api.LinkChange{Peer: msg.NodeID(nb), Up: false})
		}
	}
	for _, nb := range e.G.Neighbors(int(n)) {
		if e.sim.LinkState(int(n), nb) && !e.shims[nb].crashed {
			e.InjectExternal(msg.NodeID(nb), api.PeerRestart{Peer: n})
		}
	}
}

// Crashed reports whether node n is currently crash-quarantined.
func (e *Engine) Crashed(n msg.NodeID) bool { return e.shims[n].crashed }

// WindowHighWater returns the largest history window any shim ever held —
// the fault checker's wedge detector (a hold or promise that never
// releases shows up as an unbounded window long before it ODs on memory).
func (e *Engine) WindowHighWater() int {
	hw := 0
	for _, sh := range e.shims {
		hw = max(hw, sh.win.hw)
	}
	return hw
}

// HeldMessages counts the distinct wire messages the engine's own
// structures still reference: history-window entries, deferred arrivals
// and live sent records. At quiescence (nothing in flight) every live
// pooled message must be accounted for here — PoolLive() exceeding it
// means a reference leaked (e.g. a crash path that forgot a Release).
func (e *Engine) HeldMessages() int {
	seen := map[msg.ID]struct{}{}
	note := func(m *msg.Message) {
		if m != nil {
			seen[m.ID] = struct{}{}
		}
	}
	for _, sh := range e.shims {
		sh.pend.held(note)
		sh.win.held(note)
		sh.ledger.held(note)
	}
	return len(seen)
}

// PoolLive sums checked-out messages across the simulator's pools — the
// other half of the leak oracle (see HeldMessages).
func (e *Engine) PoolLive() int { return e.sim.PoolLive() }

// Pooled reports whether wire messages are pool-refcounted in this run —
// the precondition for the PoolLive/HeldMessages leak comparison
// (without the pool every Retain/Release is a no-op, so the pool sees
// nothing).
func (e *Engine) Pooled() bool { return e.pooled }
