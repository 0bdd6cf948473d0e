package transport

import (
	"fmt"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// MultiSend is the MSEC-style baseline protocol (Section 2.2): every key is
// multicast with the same fixed degree of replication, regardless of how
// many receivers need it or how lossy they are. NACKed keys are re-sent
// with the same replication in subsequent rounds.
type MultiSend struct {
	Config Config
	// Replication is the uniform per-key copy count per round (≥ 1).
	Replication int
	// Order is the packing order (breadth-first by default).
	Order PackOrder
	// Metrics, when non-nil, receives per-delivery costs.
	Metrics *Metrics
}

// NewMultiSend returns the protocol with the given uniform replication.
func NewMultiSend(cfg Config, replication int) *MultiSend {
	return &MultiSend{Config: cfg, Replication: replication, Order: BreadthFirst}
}

// Name implements Protocol.
func (ms *MultiSend) Name() string { return "multi-send" }

// Deliver implements Protocol.
func (ms *MultiSend) Deliver(items []keytree.Item, net *netsim.Network) (Result, error) {
	if err := ms.Config.Validate(); err != nil {
		return Result{}, err
	}
	if ms.Replication < 1 {
		return Result{}, fmt.Errorf("%w: replication=%d", ErrBadConfig, ms.Replication)
	}
	return deliverReplicated(items, net, ms.Config, ms.Order, ms.Metrics, func(*receiverState, int) int { return ms.Replication })
}
