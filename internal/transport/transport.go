// Package transport implements reliable rekey transport protocols over a
// lossy multicast network (Section 2.2): the encrypted keys of one rekey
// payload must reach every interested receiver, exploiting the payload's
// sparseness property (each receiver needs only a few keys) and, for the
// proactive protocols, the relative importance of keys near the root.
//
// Three protocols are provided, mirroring the paper's survey:
//
//   - MultiSend — the MSEC-style baseline: every key is multicast with the
//     same fixed degree of replication, then NACKed keys are retransmitted.
//   - WKABKR — weighted key assignment + batched key retransmission (Setia
//     et al.): replication per key proportional to its expected number of
//     transmissions given its receiver set's loss rates; retransmission
//     rounds repack only still-needed keys.
//   - ProactiveFEC — keys are packed into packets, packets grouped into
//     Reed-Solomon blocks, and parity is sent proactively (Yang et al.);
//     NACK rounds send additional parity sized by the worst deficit.
//
// All protocols run against internal/netsim and report the paper's cost
// metric: the total number of encrypted-key slots transmitted until every
// receiver has everything it needs.
package transport

import (
	"errors"
	"fmt"
	"sort"

	"groupkey/internal/keytree"
	"groupkey/internal/netsim"
)

// Transport errors.
var (
	ErrBadConfig   = errors.New("transport: invalid configuration")
	ErrUndelivered = errors.New("transport: receivers still missing keys after max rounds")
)

// UndeliveredError reports how much work a protocol left unfinished when
// it gave up: the count of receivers still missing at least one key and
// the total key slots outstanding across them. It wraps ErrUndelivered,
// so existing errors.Is checks keep working; callers sizing repair rounds
// errors.As it out to know how much to resend.
type UndeliveredError struct {
	// Receivers is the number of receivers still missing keys.
	Receivers int
	// KeySlots is the total (receiver, key) pairs still undelivered.
	KeySlots int
	// Rounds is the round budget that was exhausted.
	Rounds int
}

// Error implements error.
func (e *UndeliveredError) Error() string {
	return fmt.Sprintf("%v: %d receivers missing %d key slots after %d rounds",
		ErrUndelivered, e.Receivers, e.KeySlots, e.Rounds)
}

// Unwrap ties the error into the ErrUndelivered chain.
func (e *UndeliveredError) Unwrap() error { return ErrUndelivered }

// Config holds parameters shared by all protocols.
type Config struct {
	// KeysPerPacket is the packet capacity in encrypted keys. The paper's
	// rekey packets carry on the order of tens of keys.
	KeysPerPacket int
	// MaxRounds bounds NACK/retransmission rounds before giving up.
	MaxRounds int
	// LossEstimate returns the key server's estimate of a receiver's loss
	// rate. In the real protocol members piggyback their observed loss on
	// NACKs (Section 4.2); when LossEstimate is nil the protocols query
	// the simulated network's true per-receiver rates instead — the
	// converged state of that feedback loop.
	LossEstimate func(keytree.MemberID) float64
	// DefaultLoss is used when no estimate is available for a receiver.
	DefaultLoss float64
}

// DefaultConfig returns a sensible baseline configuration.
func DefaultConfig() Config {
	return Config{KeysPerPacket: 25, MaxRounds: 64, DefaultLoss: 0.02}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.KeysPerPacket < 1 {
		return fmt.Errorf("%w: keysPerPacket=%d", ErrBadConfig, c.KeysPerPacket)
	}
	if c.MaxRounds < 1 {
		return fmt.Errorf("%w: maxRounds=%d", ErrBadConfig, c.MaxRounds)
	}
	if c.DefaultLoss < 0 || c.DefaultLoss >= 1 {
		return fmt.Errorf("%w: defaultLoss=%v", ErrBadConfig, c.DefaultLoss)
	}
	return nil
}

func (c Config) lossOf(m keytree.MemberID, net *netsim.Network) float64 {
	if c.LossEstimate != nil {
		if p := c.LossEstimate(m); p >= 0 && p < 1 {
			return p
		}
		return c.DefaultLoss
	}
	if net != nil {
		if p, err := net.LossRate(m); err == nil {
			return p
		}
	}
	return c.DefaultLoss
}

// Result reports the cost of delivering one payload.
type Result struct {
	// Rounds is the number of multicast rounds used (1 = no retransmission
	// needed).
	Rounds int
	// PacketsSent counts multicast packets across all rounds.
	PacketsSent int
	// KeysSent counts encrypted-key slots transmitted — replicas, parity
	// and retransmissions included. This is the paper's bandwidth metric.
	KeysSent int
	// KeysPerRound breaks KeysSent down by round.
	KeysPerRound []int
	// NACKs counts the negative acknowledgements the server processed:
	// one per receiver per round in which that receiver was still missing
	// keys. Receiver-initiated protocols live and die by this feedback
	// volume (Section 2.2).
	NACKs int
	// Delivered reports whether every receiver obtained all its keys.
	Delivered bool
}

// Protocol delivers a rekey payload reliably.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Deliver runs the protocol for the given multicast items against the
	// network and returns transport costs. Each item is delivered to its
	// Receivers list, so path-addressed items need theirs derived first
	// (wire.Addressed). Receivers not registered in the network are
	// skipped (they are gone; the key server prunes them).
	Deliver(items []keytree.Item, net *netsim.Network) (Result, error)
}

// receiverState tracks which items each interested receiver still needs.
type receiverState struct {
	// need maps receiver → set of item indexes still missing.
	need map[keytree.MemberID]map[int]bool
}

// newReceiverState indexes the items' receiver lists, skipping receivers
// absent from the network.
func newReceiverState(items []keytree.Item, net *netsim.Network) *receiverState {
	rs := &receiverState{need: make(map[keytree.MemberID]map[int]bool)}
	for i, it := range items {
		for _, r := range it.Receivers {
			if !net.HasReceiver(r) {
				continue
			}
			set, ok := rs.need[r]
			if !ok {
				set = make(map[int]bool)
				rs.need[r] = set
			}
			set[i] = true
		}
	}
	return rs
}

// satisfied reports whether all receivers have everything.
func (rs *receiverState) satisfied() bool { return len(rs.need) == 0 }

// undelivered builds the give-up error for the current deficit.
func (rs *receiverState) undelivered(rounds int) *UndeliveredError {
	e := &UndeliveredError{Receivers: len(rs.need), Rounds: rounds}
	for _, items := range rs.need {
		e.KeySlots += len(items)
	}
	return e
}

// got records that receiver r received item i.
func (rs *receiverState) got(r keytree.MemberID, i int) {
	set, ok := rs.need[r]
	if !ok {
		return
	}
	delete(set, i)
	if len(set) == 0 {
		delete(rs.need, r)
	}
}

// needs reports whether r still needs item i.
func (rs *receiverState) needs(r keytree.MemberID, i int) bool {
	return rs.need[r][i]
}

// pendingItems returns the set of item indexes still needed by anyone,
// ascending.
func (rs *receiverState) pendingItems() []int {
	set := make(map[int]bool)
	for _, items := range rs.need {
		for i := range items {
			set[i] = true
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// interestedIn returns the receivers still needing item i, ascending.
func (rs *receiverState) interestedIn(i int) []keytree.MemberID {
	var out []keytree.MemberID
	for r, items := range rs.need {
		if items[i] {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// receivers returns all receivers still needing anything, ascending.
func (rs *receiverState) receivers() []keytree.MemberID {
	out := make([]keytree.MemberID, 0, len(rs.need))
	for r := range rs.need {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
