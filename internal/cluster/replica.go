package cluster

import (
	"errors"
	"fmt"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// The replica rules — the lease step, the fence check before a journal,
// the primary's catch-up choice and the follower's acceptance of records
// and snapshots — live here, on types that do no socket I/O and start no
// goroutines. Node drives them from its sockets and lease loop; the
// deterministic simulator (internal/dst) drives them from scheduled
// events.

// Replica is one group's replicated state on one node: the store (which
// keeps the durable fence epoch), the scheme and the next member ID. While
// the node is primary the live server owns Scheme and NextID.
type Replica struct {
	Store   *store.Store
	Scheme  core.Scheme
	NextID  keytree.MemberID
	metrics *Metrics
}

// OpenReplica opens and recovers the store in dir.
func OpenReplica(dir string, opts store.Options, m *Metrics) (*Replica, *store.RecoveryResult, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := st.Recover()
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("recovering: %w", err)
	}
	return &Replica{Store: st, Scheme: res.Scheme, NextID: res.NextID, metrics: m}, res, nil
}

// Epoch returns the durable fence epoch.
func (r *Replica) Epoch() uint64 { return r.Store.FenceEpoch() }

// Promote makes the replica the canonical log of epoch: the epoch is
// recorded before anything is journaled under it, and a replica without
// a scheme creates one from cfg.
func (r *Replica) Promote(epoch uint64, cfg store.SchemeConfig) error {
	if err := r.Store.SetFenceEpoch(epoch); err != nil {
		return err
	}
	if r.Scheme != nil {
		return nil
	}
	sc, err := r.Store.Create(cfg)
	r.Scheme = sc
	return err
}

// Hello is the follower's catch-up request: its durable epoch and the
// newest sequence its log holds.
func (r *Replica) Hello(g wire.GroupID, node NodeID) wire.ReplHello {
	return wire.ReplHello{Group: g, Epoch: r.Epoch(), HaveSeq: r.Store.LastSeq(), Node: string(node)}
}

// State is the snapshot cut of a replica no server owns, shaped like
// server.Server.BootstrapState.
func (r *Replica) State(fn func(core.Scheme, keytree.MemberID) error) error {
	return fn(r.Scheme, r.NextID)
}

// ErrFenced marks replication traffic the epoch fence refuses.
var ErrFenced = errors.New("cluster: fenced")

// CatchUp decides what a primary holding epoch ships a follower that sent
// hello. A follower at the same epoch gets the WAL records past its
// position: none when it is at or past the primary's sequence, since one
// epoch has one log. A follower at a lower epoch, or one the log was
// compacted past, gets a snapshot instead, which also erases any suffix
// it journaled under a deposed epoch; cut hands a consistent scheme and
// next ID to its callback (Node passes the live server's BootstrapState).
// A follower that has seen a higher epoch is refused: this primary is the
// deposed one.
func (r *Replica) CatchUp(hello wire.ReplHello, epoch uint64, cut func(func(core.Scheme, keytree.MemberID) error) error) ([]store.Record, *wire.ReplSnapshot, error) {
	if hello.Epoch > epoch {
		r.metrics.noteFenced()
		return nil, nil, fmt.Errorf("%w: stale primary: follower at epoch %d, lease at %d", ErrFenced, hello.Epoch, epoch)
	}
	if hello.Epoch == epoch {
		if recs, ok, err := r.Store.RecordsFrom(hello.HaveSeq); err != nil || ok {
			return recs, nil, err
		}
	}
	snap := &wire.ReplSnapshot{Epoch: epoch}
	err := cut(func(sc core.Scheme, nextID keytree.MemberID) error {
		if sc == nil {
			return errors.New("cluster: no scheme state to ship")
		}
		blob, err := sc.Snapshot()
		snap.Seq, snap.NextID, snap.Scheme = r.Store.LastSeq(), nextID, blob
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return nil, snap, nil
}

// AcceptRecord journals and applies one streamed record. A record from
// below the durable epoch is a deposed primary's (ErrFenced); one that
// does not extend the log by one is store.ErrOutOfOrder.
func (r *Replica) AcceptRecord(rec wire.ReplRecord) error {
	if err := r.fenced("record", rec.Epoch); err != nil {
		return err
	}
	sc, _, nextID, err := r.Store.ReplicaApply(r.Scheme, store.Record{
		Kind: rec.Kind, Seq: rec.Seq, Seed: rec.Seed, Payload: rec.Payload,
	})
	if err != nil {
		return err
	}
	r.Scheme, r.NextID = sc, max(r.NextID, nextID)
	r.metrics.noteApplied()
	return nil
}

// AcceptSnapshot installs a shipped snapshot, replacing the replica's
// whole state (including any WAL suffix journaled under a deposed epoch),
// and only then records its epoch: a crash in between re-syncs under the
// old, lower epoch and receives the snapshot again.
func (r *Replica) AcceptSnapshot(snap wire.ReplSnapshot) error {
	if err := r.fenced("snapshot", snap.Epoch); err != nil {
		return err
	}
	sc, err := r.Store.InstallSnapshot(snap.Seq, snap.NextID, snap.Scheme)
	if err != nil {
		return err
	}
	r.Scheme, r.NextID = sc, snap.NextID
	return r.Store.SetFenceEpoch(snap.Epoch)
}

func (r *Replica) fenced(what string, epoch uint64) error {
	if durable := r.Epoch(); epoch < durable {
		r.metrics.noteFenced()
		return fmt.Errorf("%w: %s epoch %d below durable epoch %d", ErrFenced, what, epoch, durable)
	}
	return nil
}

// ShardLease is a node's hold on one shard.
type ShardLease struct {
	Owned bool
	Lease Lease
}

// Step runs one lease-maintenance pass for shard and reports whether the
// caller must demote the shard's groups, then promote them (both when it
// re-won the shard under a new epoch, which re-arms the fence). fence is
// the highest durable fence epoch of the shard's replicas; a node
// promotes only under a higher epoch. A live lease this node holds at an
// epoch its stores already recorded was taken by an earlier process,
// whose log this one may have lost a suffix of. The step lets that lease
// lapse instead of renewing it; the next Acquire raises the epoch, so
// every follower that saw the old log gets a snapshot. A restarted
// primary thus waits at most one lease TTL before it serves.
func (s *ShardLease) Step(auth Authority, shard ShardID, node NodeID, ttl time.Duration, fence uint64) (demote, promote bool, err error) {
	if !s.Owned {
		if cur, ok := auth.Peek(shard); ok && cur.Owner == node && cur.Epoch <= fence {
			return false, false, nil
		}
	}
	lease, err := auth.Acquire(shard, node, ttl)
	if err != nil {
		if plantedFencingBug && s.Owned {
			// The planted race: keep the shard until a successor shows up.
			if cur, ok := auth.Peek(shard); !ok || cur.Owner == node {
				return false, false, err
			}
		}
		demote, s.Owned = s.Owned, false
		return demote, false, err
	}
	switch {
	case !s.Owned && lease.Epoch <= fence:
		return false, false, nil // raced the peek above; the lease will lapse
	case s.Owned && lease.Epoch == s.Lease.Epoch:
		s.Lease = lease // renewed
		return false, false, nil
	}
	demote = s.Owned
	s.Owned, s.Lease = true, lease
	return demote, true, nil
}

// LeaseFence gates every primary mutation on the lease authority: it
// passes only while the authority still shows Lease's owner holding its
// shard under its epoch.
type LeaseFence struct {
	Auth    Authority
	Lease   Lease
	Metrics *Metrics
}

// Check implements server.Fence.
func (f LeaseFence) Check() error {
	if plantedFencingBug {
		return nil // the planted race: trust the cached promotion
	}
	cur, ok := f.Auth.Peek(f.Lease.Shard)
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("cluster: shard %d lease lapsed", f.Lease.Shard)
	case cur.Owner != f.Lease.Owner:
		err = fmt.Errorf("cluster: shard %d owned by %s (epoch %d)", cur.Shard, cur.Owner, cur.Epoch)
	case cur.Epoch != f.Lease.Epoch:
		err = fmt.Errorf("cluster: shard %d epoch moved %d -> %d", cur.Shard, f.Lease.Epoch, cur.Epoch)
	default:
		return nil
	}
	f.Metrics.noteFenced()
	return err
}
