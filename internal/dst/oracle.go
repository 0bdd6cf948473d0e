package dst

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// ViolationKind classifies an oracle failure.
type ViolationKind string

const (
	// ViolationFencing: a node journaled a record while the authority's
	// lease belonged to someone else — a deposed primary emitted.
	ViolationFencing ViolationKind = "fencing"
	// ViolationForwardSecrecy: a departed member recovered a later group
	// key from the broadcast stream.
	ViolationForwardSecrecy ViolationKind = "forward-secrecy"
	// ViolationBackwardSecrecy: a joiner holds the group key of an epoch
	// preceding its admission.
	ViolationBackwardSecrecy ViolationKind = "backward-secrecy"
	// ViolationAgreement: after full heal and settle, a current member
	// does not hold the owner's group key.
	ViolationAgreement ViolationKind = "agreement"
	// ViolationReplica: after full heal and settle, a replica's state
	// (scheme bytes, sequence, signing identity) differs from the owner's.
	ViolationReplica ViolationKind = "replica-divergence"
	// ViolationDurability: a store failed to reopen or recover from what
	// a crash left behind.
	ViolationDurability ViolationKind = "durability"
	// ViolationSLO: a broadcast missed the delivery-spread SLO while the
	// plan had one armed (fault-free profiles only).
	ViolationSLO ViolationKind = "delivery-slo"
)

// Violation is one oracle failure, timestamped in virtual time.
type Violation struct {
	Kind   ViolationKind `json:"kind"`
	At     time.Duration `json:"at"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string { return fmt.Sprintf("[%s @%s] %s", v.Kind, v.At, v.Detail) }

// checkFence is the omniscient fence oracle, evaluated at the instant a
// primary is about to journal: the authority must agree this node, at
// this epoch, owns the shard. The production fence check makes the same
// test just before this point, so in correct builds it can never fire;
// the planted bug skips the production check and this oracle catches the
// deposed-primary write.
func (w *World) checkFence(n *simNode, ng *nodeGroup) {
	l, ok := w.auth.Peek(ng.g.shard)
	if !ok || l.Owner != n.id || l.Epoch != ng.hold.Lease.Epoch {
		owner, epoch := "nobody", uint64(0)
		if ok {
			owner, epoch = string(l.Owner), l.Epoch
		}
		w.violate(ViolationFencing,
			"n%d journals g%d at epoch %d but the lease is %s@%d — deposed primary emitted",
			n.idx, ng.g.id, ng.hold.Lease.Epoch, owner, epoch)
	}
}

// checkBackward runs when a joiner finishes bootstrapping: it must not
// hold the group key of the epoch that preceded its admission.
func (w *World) checkBackward(g *simGroup, sm *simMember, epoch uint64, prevKey keycrypt.Key, hadPrev bool) {
	if hadPrev && sm.m.Has(prevKey) {
		w.violate(ViolationBackwardSecrecy,
			"joiner %d holds g%d group key from before epoch %d", sm.id, g.id, epoch)
	}
}

// checkSLO fires plan.SLO after a broadcast: every member addressed by it
// must have converged, unless a newer broadcast superseded it.
func (w *World) checkSLO(g *simGroup, em *emission) {
	if g.last != em || len(em.waiting) == 0 {
		return
	}
	ids := make([]keytree.MemberID, 0, len(em.waiting))
	for id := range em.waiting {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if _, still := g.members[id]; !still {
			delete(em.waiting, id)
			continue
		}
		w.violate(ViolationSLO,
			"member %d missed g%d epoch %d key %s after emission", id, g.id, em.epoch, w.plan.SLO)
	}
}

// endChecks runs the terminal oracles on a fully healed, settled world.
func (w *World) endChecks() {
	for gi, g := range w.groups {
		o := w.ownerNode(g)
		if o == nil {
			if g.rekeys > 0 {
				w.violate(ViolationAgreement, "g%d has no live owner after settle", gi)
			}
			continue
		}
		ong := o.groups[gi]
		if ong.scheme() == nil {
			if g.rekeys > 0 {
				w.violate(ViolationAgreement, "g%d owner n%d has no scheme after settle", gi, o.idx)
			}
			continue
		}
		gk, err := ong.rep.Scheme.GroupKey()
		if err != nil {
			w.violate(ViolationAgreement, "g%d owner group key: %v", gi, err)
			continue
		}

		// Agreement: every current member holds the owner's group key.
		for _, id := range sortedMemberIDs(g.members) {
			if !g.members[id].m.Has(gk) {
				w.violate(ViolationAgreement,
					"member %d lacks g%d group key after settle (owner n%d)", id, gi, o.idx)
			}
		}

		// Forward secrecy, terminal restatement: no cryptographically
		// evicted member holds the final key either.
		for _, id := range sortedMemberIDs(g.departed) {
			if ong.rep.Scheme.Contains(id) {
				continue // eviction never became durable (lost leave record)
			}
			if g.departed[id].m.Has(gk) {
				w.violate(ViolationForwardSecrecy,
					"departed member %d holds final g%d group key", id, gi)
			}
		}

		// Replica byte-identity: every live replica's serialized scheme,
		// sequence and signing identity must match the owner's.
		oblob, err := ong.rep.Scheme.Snapshot()
		if err != nil {
			w.violate(ViolationReplica, "g%d owner snapshot: %v", gi, err)
			continue
		}
		oseq := ong.rep.Store.LastSeq()
		oseed := ong.rep.Store.SigningSeed()
		for _, peer := range w.nodes {
			if peer == o || !peer.alive {
				continue
			}
			png := peer.groups[gi]
			if png.scheme() == nil {
				w.violate(ViolationReplica, "g%d replica n%d has no state after settle", gi, peer.idx)
				continue
			}
			if pseq := png.rep.Store.LastSeq(); pseq != oseq {
				w.violate(ViolationReplica,
					"g%d replica n%d at seq %d, owner n%d at %d", gi, peer.idx, pseq, o.idx, oseq)
				continue
			}
			pblob, err := png.rep.Scheme.Snapshot()
			if err != nil {
				w.violate(ViolationReplica, "g%d replica n%d snapshot: %v", gi, peer.idx, err)
				continue
			}
			if !bytes.Equal(pblob, oblob) {
				w.violate(ViolationReplica,
					"g%d replica n%d scheme state diverges from owner n%d (%dB vs %dB)",
					gi, peer.idx, o.idx, len(pblob), len(oblob))
			}
			if !bytes.Equal(png.rep.Store.SigningSeed(), oseed) {
				w.violate(ViolationReplica,
					"g%d replica n%d signing identity diverges from owner n%d", gi, peer.idx, o.idx)
			}
		}
	}
}

// stateHash digests the terminal world state: per group, the owner's
// sequence, scheme bytes and member population. Two runs of the same
// plan must agree on it exactly.
func (w *World) stateHash() string {
	h := sha256.New()
	for gi, g := range w.groups {
		binary.Write(h, binary.BigEndian, int64(gi))
		o := w.ownerNode(g)
		if o == nil || o.groups[gi].scheme() == nil {
			continue
		}
		ong := o.groups[gi]
		binary.Write(h, binary.BigEndian, ong.rep.Store.LastSeq())
		blob, err := ong.rep.Scheme.Snapshot()
		if err == nil {
			h.Write(blob)
		}
		for _, id := range sortedMemberIDs(g.members) {
			binary.Write(h, binary.BigEndian, uint64(id))
			binary.Write(h, binary.BigEndian, int64(g.members[id].m.KeyCount()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
