package defined

// Test-only views of a Network for the package's external tests
// (package defined_test): none of them is part of the public API.

import "defined/internal/msg"

// MessagePool exposes the wire-message pool (lifecycle tests read its
// violation, quarantine and live counters).
func (n *Network) MessagePool() *msg.Pool { return n.eng.Sim().Pool() }

// PacketsReceived reports how many packets node id has received.
func (n *Network) PacketsReceived(id NodeID) uint64 {
	return n.eng.Sim().Stats(id).Received
}

// ResetPacketCounters zeroes the per-node traffic counters.
func (n *Network) ResetPacketCounters() { n.eng.Sim().ResetStats() }
