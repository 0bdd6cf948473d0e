package dst

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"groupkey/internal/cluster"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/store"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// nodeGroup is one node's replica of one group: the cluster's own
// Replica — a real store.Store on the node's in-memory filesystem — and
// lease hold, driven by scheduled events instead of sockets and
// goroutines, plus the simulated replication streams.
type nodeGroup struct {
	g       *simGroup
	rep     *cluster.Replica // nil while the node is down
	hold    cluster.ShardLease
	sub     *store.Subscription
	records int

	stream    *stream   // the replication stream this replica follows
	followers []*stream // the streams it serves as primary
}

// scheme is the replica's scheme, nil while it has none.
func (ng *nodeGroup) scheme() core.Scheme {
	if ng.rep == nil {
		return nil
	}
	return ng.rep.Scheme
}

// stream is one replication connection from a group's primary to a
// follower, standing in for the production TCP stream: messages arrive
// in the order sent, and the stream breaks for good on the first error.
type stream struct {
	to     *simNode
	gi     int
	owner  *simNode
	inc    int    // owner incarnation the stream was opened against
	epoch  uint64 // lease epoch the stream runs under
	sent   uint64 // newest sequence the primary has shipped
	arrive time.Duration
	broken bool
}

// send runs accept on the follower's replica one network hop later,
// after everything sent before it, unless the stream has broken or been
// replaced by then. An error ends the stream, as it ends the production
// follower's: the next follow tick says hello again. A disk error
// crashes the node.
func (s *stream) send(w *World, name string, accept func(*cluster.Replica) error) {
	s.arrive = max(w.sched.Now()+w.latency(), s.arrive)
	w.sched.After(s.arrive-w.sched.Now(), name, func() {
		ng := s.to.groups[s.gi]
		if s.broken || ng.stream != s || ng.hold.Owned {
			return
		}
		err := accept(ng.rep)
		drainSub(ng) // a follower's own ReplicaApply notifies it; discard
		s.broken = err != nil
		switch {
		case errors.Is(err, cluster.ErrFenced):
			w.stats.Fenced++
			w.sched.tracef("n%d g%d %v", s.to.idx, s.gi, err)
		case errors.Is(err, store.ErrOutOfOrder):
			w.sched.tracef("n%d g%d stream from n%d broke: %v", s.to.idx, s.gi, s.owner.idx, err)
		case err != nil:
			w.diskFailure(s.to, err)
		}
	})
}

// simNode is one key-server process.
type simNode struct {
	w   *World
	idx int
	id  cluster.NodeID
	clk *simClock
	fs  *vfs.Mem

	alive        bool
	inc          int
	partitioned  bool
	stalledUntil time.Duration
	slowFactor   float64

	groups []*nodeGroup
}

func newSimNode(w *World, idx int) *simNode {
	n := &simNode{
		w:   w,
		idx: idx,
		id:  cluster.NodeID(fmt.Sprintf("n%d", idx)),
		clk: &simClock{sch: w.sched},
	}
	n.fs = vfs.NewMem(func() time.Time { return n.clk.Now() })
	n.fs.WriteDelay = func(bytes int) {
		if n.slowFactor > 0 {
			w.sched.Advance(time.Duration(n.slowFactor) * time.Millisecond)
		}
	}
	for _, g := range w.groups {
		n.groups = append(n.groups, &nodeGroup{g: g})
	}
	return n
}

func (n *simNode) boot() {
	n.alive = true
	n.openStores()
	n.armTicks()
}

// A node is its own, network-limited view of the lease authority (a
// cluster.Authority): every call fails while it is partitioned.

func (n *simNode) Acquire(shard cluster.ShardID, node cluster.NodeID, ttl time.Duration) (cluster.Lease, error) {
	if n.partitioned {
		return cluster.Lease{}, errors.New("dst: lease authority unreachable")
	}
	return n.w.auth.Acquire(shard, node, ttl)
}

func (n *simNode) Peek(shard cluster.ShardID) (cluster.Lease, bool) {
	if n.partitioned {
		return cluster.Lease{}, false
	}
	return n.w.auth.Peek(shard)
}

// entropyFor derives a per-(plan, node, group, incarnation) deterministic
// entropy stream. Every byte drawn from it lands in a journaled record or
// a sealed snapshot, so replicas still converge byte-identically.
func (n *simNode) entropyFor(g int) *keycrypt.DeterministicReader {
	var buf [32]byte
	h := sha256.New()
	binary.Write(h, binary.BigEndian, n.w.plan.Seed)
	binary.Write(h, binary.BigEndian, int64(n.idx))
	binary.Write(h, binary.BigEndian, int64(g))
	binary.Write(h, binary.BigEndian, int64(n.inc))
	h.Sum(buf[:0])
	return keycrypt.NewSeededReader(buf[:])
}

// openStores opens and recovers every group replica from whatever the
// crash (if any) left durable.
func (n *simNode) openStores() {
	w := n.w
	for gi, ng := range n.groups {
		rep, res, err := cluster.OpenReplica(store.GroupDir("/state", wire.GroupID(gi)), store.Options{
			Fsync:   w.fsync,
			FS:      n.fs,
			Clock:   n.clk,
			Entropy: n.entropyFor(gi),
			SchemeOptions: []core.Option{
				core.WithKeyIDBase(store.GroupKeyIDBase(wire.GroupID(gi))),
				core.WithRekeyWorkers(1),
			},
		}, nil)
		if err != nil {
			w.violate(ViolationDurability, "n%d g%d open after crash: %v", n.idx, gi, err)
			continue
		}
		*ng = nodeGroup{g: ng.g, rep: rep, sub: rep.Store.Subscribe(8192)}
		w.stats.Recoveries++
		if res.TruncatedBytes > 0 {
			w.sched.tracef("n%d g%d recovery truncated %dB torn tail", n.idx, gi, res.TruncatedBytes)
		}
	}
}

// armTicks schedules the node's lease and rekey loops for its current
// incarnation. A stalled node's ticks slide past the stall in jittered
// order — exactly the wakeup race a GC pause creates.
func (n *simNode) armTicks() {
	w := n.w
	inc := n.inc
	every := func(period, offset time.Duration, name string, tick func()) {
		var loop func()
		loop = func() {
			if n.inc != inc || !n.alive {
				return
			}
			if now := w.sched.Now(); now < n.stalledUntil {
				jitter := time.Duration(w.sched.rng.IntN(20)) * time.Millisecond
				w.sched.After(n.stalledUntil-now+jitter, name, loop)
				return
			}
			tick()
			w.sched.After(period, name, loop)
		}
		w.sched.After(offset, name, loop)
	}
	every(w.plan.LeaseTTL/3, time.Duration(37*(n.idx+1))*time.Millisecond, "lease", n.leaseTick)
	every(w.plan.Period, w.plan.Period/2+time.Duration(53*(n.idx+1))*time.Millisecond, "rekey", func() {
		for _, ng := range n.groups {
			n.processGroup(ng)
		}
	})
	every(w.plan.LeaseTTL/2, time.Duration(71*(n.idx+1))*time.Millisecond, "follow", n.followTick)
}

// leaseTick runs the cluster's lease step for every group's shard and
// acts on the outcome as cluster.Node does: demote, promote, or both.
func (n *simNode) leaseTick() {
	w := n.w
	for gi, ng := range n.groups {
		if ng.rep == nil {
			continue
		}
		demote, promote, err := ng.hold.Step(n, ng.g.shard, n.id, w.plan.LeaseTTL, ng.rep.Epoch())
		if demote && !promote {
			w.sched.tracef("n%d g%d demoted: %v", n.idx, gi, err)
		}
		if !promote {
			continue
		}
		cfg, err := store.ParseSchemeConfig(w.plan.Scheme, w.plan.K)
		if err != nil {
			panic(fmt.Sprintf("dst: bad plan scheme %q: %v", w.plan.Scheme, err))
		}
		cfg.Planner = w.plan.Planner
		if err := ng.rep.Promote(ng.hold.Lease.Epoch, cfg); err != nil {
			w.diskFailure(n, err)
			return
		}
		w.stats.Promotions++
		w.sched.tracef("n%d g%d promoted at epoch %d (seq %d)", n.idx, gi, ng.hold.Lease.Epoch, ng.rep.Store.LastSeq())
	}
}

// followTick is the follower loop: a replica that is not primary follows
// the shard's lease holder, and sends a new hello whenever its stream has
// broken or the owner node, its incarnation or the lease epoch changed.
func (n *simNode) followTick() {
	w := n.w
	for gi, ng := range n.groups {
		if ng.rep == nil || ng.hold.Owned {
			continue
		}
		l, ok := n.Peek(ng.g.shard)
		o := w.ownerNode(ng.g)
		if !ok || o == nil || o == n {
			continue
		}
		if s := ng.stream; s != nil && !s.broken && s.owner == o && s.inc == o.inc && s.epoch == l.Epoch {
			continue
		}
		s := &stream{to: n, gi: gi, owner: o, inc: o.inc, epoch: l.Epoch}
		ng.stream = s
		hello := ng.rep.Hello(wire.GroupID(gi), n.id)
		w.sched.After(w.latency(), "repl.hello", func() { w.serveHello(s, hello) })
	}
}

// serveHello is the primary's side of a new stream: the cluster's
// catch-up choice, shipped in order behind the welcome, after which the
// stream carries every freshly journaled record.
func (w *World) serveHello(s *stream, hello wire.ReplHello) {
	o, ong := s.owner, s.owner.groups[s.gi]
	if !w.reachable(o, s.to) || !ong.hold.Owned {
		s.broken = true
		return
	}
	s.epoch = ong.hold.Lease.Epoch
	recs, snap, err := ong.rep.CatchUp(hello, s.epoch, ong.rep.State)
	if err != nil {
		w.sched.tracef("n%d g%d refused n%d: %v", o.idx, s.gi, s.to.idx, err)
		s.broken = true
		return
	}
	seed := ong.rep.Store.SigningSeed()
	s.send(w, "repl.welcome", func(rep *cluster.Replica) error { return rep.Store.AdoptSigningKey(seed) })
	s.sent = hello.HaveSeq
	if len(recs) > 0 {
		w.stats.CatchUps++
	}
	for _, rec := range recs {
		w.shipRecord(s, rec)
	}
	if snap != nil {
		s.sent = snap.Seq
		s.send(w, "repl.snapshot", func(rep *cluster.Replica) error {
			if err := rep.AcceptSnapshot(*snap); err != nil {
				return err
			}
			w.stats.SnapInstalls++
			w.sched.tracef("n%d g%d installed snapshot seq=%d epoch=%d", s.to.idx, s.gi, snap.Seq, snap.Epoch)
			return nil
		})
	}
	ong.followers = append(ong.followers, s)
}

// shipRecord sends one journaled record down a stream, stamped with the
// stream's epoch, and applies it at the follower.
func (w *World) shipRecord(s *stream, rec store.Record) {
	s.sent = rec.Seq
	frame := wire.ReplRecord{Epoch: s.epoch, Kind: rec.Kind, Seq: rec.Seq, Seed: rec.Seed, Payload: rec.Payload}
	s.send(w, "repl.record", func(rep *cluster.Replica) error {
		if err := rep.AcceptRecord(frame); err != nil {
			return err
		}
		w.stats.Replicated++
		return nil
	})
}

// processGroup runs one rekey period as primary: fence check, journal,
// apply, snapshot cadence, replicate, broadcast.
func (n *simNode) processGroup(ng *nodeGroup) {
	w := n.w
	if w.frozen || !n.alive || ng.scheme() == nil || !ng.hold.Owned {
		return
	}
	fence := cluster.LeaseFence{Auth: n, Lease: ng.hold.Lease}
	if err := fence.Check(); err != nil {
		return // cannot prove the lease: stay silent
	}
	g := ng.g
	if len(g.pendingJoins) == 0 && len(g.pendingLeaves) == 0 {
		return // nothing to rekey this period; an empty batch would only dilute repair history
	}
	rep := ng.rep
	var b core.Batch
	joins := g.pendingJoins
	g.pendingJoins = nil
	b.Leaves = g.pendingLeaves
	g.pendingLeaves = nil
	for _, meta := range joins {
		b.Joins = append(b.Joins, core.Join{ID: rep.NextID, Meta: meta})
		rep.NextID++
	}
	w.checkFence(n, ng) // omniscient oracle view at journal time

	var prevKey keycrypt.Key
	hadPrev := rep.Scheme.Size() > 0
	if hadPrev {
		var err error
		if prevKey, err = rep.Scheme.GroupKey(); err != nil {
			w.violate(ViolationAgreement, "n%d g%d group key before batch: %v", n.idx, g.id, err)
			return
		}
	}

	if err := rep.Store.JournalBatch(b); err != nil {
		w.diskFailure(n, err)
		return
	}
	rk, err := rep.Scheme.ProcessBatch(b)
	if err != nil {
		// Journal-then-fail mutates nothing; replicas fail identically.
		w.sched.tracef("n%d g%d batch rejected (no-op): %v", n.idx, g.id, err)
		n.replicate(ng)
		return
	}
	ng.records++
	if ng.records%snapshotEvery == 0 {
		if err := rep.Store.SaveSnapshot(rep.Scheme, rep.NextID); err != nil {
			w.diskFailure(n, err)
			return
		}
		w.stats.Snapshots++
	}
	n.replicate(ng)
	w.emit(n, ng, b, rk, prevKey, hadPrev)
}

// replicate drains freshly journaled records and ships them down every
// live stream this primary serves. A stream to an unreachable follower,
// or one the log jumped under, breaks.
func (n *simNode) replicate(ng *nodeGroup) {
	recs := drainSub(ng)
	if !ng.hold.Owned || len(recs) == 0 {
		return
	}
	w := n.w
	live := ng.followers[:0]
	for _, s := range ng.followers {
		if s.broken || s.to.groups[s.gi].stream != s || !w.reachable(n, s.to) {
			s.broken = true
			continue
		}
		for _, rec := range recs {
			if rec.Seq <= s.sent {
				continue
			}
			if rec.Seq != s.sent+1 {
				s.broken = true
				break
			}
			w.shipRecord(s, rec)
		}
		if !s.broken {
			live = append(live, s)
		}
	}
	ng.followers = live
}

func drainSub(ng *nodeGroup) []store.Record {
	if ng.sub == nil {
		return nil
	}
	var out []store.Record
	for {
		select {
		case r, open := <-ng.sub.C():
			if !open {
				ng.sub = nil
				return out
			}
			out = append(out, r)
		default:
			return out
		}
	}
}
