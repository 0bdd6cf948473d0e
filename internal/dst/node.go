package dst

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"groupkey/internal/cluster"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// nodeGroup is one node's replica of one group: a real store.Store on the
// node's in-memory filesystem, plus lease and replication state.
type nodeGroup struct {
	g      *simGroup
	st     *store.Store
	sc     core.Scheme
	sub    *store.Subscription
	nextID keytree.MemberID

	owned      bool
	lease      cluster.Lease
	fenceEpoch uint64
	// replEpoch is the durable fence epoch this replica's log was last
	// written under (mirrors the cluster's fence.epoch file): records
	// from a lower epoch are rejected, a higher epoch forces a snapshot
	// resync that erases any divergent suffix.
	replEpoch uint64
	resyncing bool
	records   int
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

func (n *simNode) stateDir(g int) string {
	return store.GroupDir("/state", wire.GroupID(g))
}

func epochFile(dir string) string { return dir + "/fence.epoch" }

func (ng *nodeGroup) persistEpoch(n *simNode, dir string) {
	_ = n.fs.WriteFile(epochFile(dir), []byte(strconv.FormatUint(ng.replEpoch, 10)), 0o600)
}

func loadEpoch(fs *vfs.Mem, dir string) uint64 {
	raw, err := fs.ReadFile(epochFile(dir))
	if err != nil {
		return 0
	}
	e, _ := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	return e
}

// openStores opens and recovers every group store from whatever the
// crash (if any) left durable.
func (n *simNode) openStores() {
	w := n.w
	for gi, ng := range n.groups {
		dir := n.stateDir(gi)
		st, err := store.Open(dir, store.Options{
			Fsync:   w.fsync,
			FS:      n.fs,
			Clock:   n.clk,
			Entropy: n.entropyFor(gi),
			SchemeOptions: []core.Option{
				core.WithKeyIDBase(store.GroupKeyIDBase(wire.GroupID(gi))),
				core.WithRekeyWorkers(1),
			},
		})
		if err != nil {
			w.violate(ViolationDurability, "n%d g%d open after crash: %v", n.idx, gi, err)
			continue
		}
		res, err := st.Recover()
		if err != nil {
			w.violate(ViolationDurability, "n%d g%d recover: %v", n.idx, gi, err)
			continue
		}
		ng.st = st
		ng.sc = res.Scheme
		ng.nextID = res.NextID
		ng.sub = st.Subscribe(8192)
		ng.owned = false
		ng.resyncing = false
		ng.records = 0
		ng.replEpoch = loadEpoch(n.fs, dir)
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

// leaseTick acquires or renews every group's lease, promoting and
// demoting this node as the authority dictates.
func (n *simNode) leaseTick() {
	w := n.w
	for gi, ng := range n.groups {
		if ng.st == nil {
			continue
		}
		if n.partitioned {
			if ng.owned && !plantedFencingBug && !ng.lease.Expires.After(n.clk.Now()) {
				// Cannot renew and the cached lease has lapsed on the local
				// clock: step down. (The planted bug keeps trusting the
				// cached promotion until it positively observes a successor.)
				ng.owned = false
				w.sched.tracef("n%d g%d demoted (lease lapsed while unreachable)", n.idx, gi)
			}
			continue
		}
		l, err := w.auth.Acquire(ng.g.shard, n.id, w.plan.LeaseTTL)
		if err != nil {
			if ng.owned {
				ng.owned = false
				w.sched.tracef("n%d g%d demoted (lease lost)", n.idx, gi)
			}
			continue
		}
		if !ng.owned || l.Epoch != ng.fenceEpoch {
			ng.owned = true
			ng.fenceEpoch = l.Epoch
			ng.replEpoch = l.Epoch
			ng.persistEpoch(n, n.stateDir(gi))
			w.stats.Promotions++
			w.sched.tracef("n%d g%d promoted at epoch %d (seq %d)", n.idx, gi, l.Epoch, ng.st.LastSeq())
			if ng.sc == nil && ng.st.LastSeq() == 0 {
				n.createScheme(ng, gi)
			}
		}
		ng.lease = l
	}
}

func (n *simNode) createScheme(ng *nodeGroup, gi int) {
	w := n.w
	cfg, err := store.ParseSchemeConfig(w.plan.Scheme, w.plan.K)
	if err != nil {
		panic(fmt.Sprintf("dst: bad plan scheme %q: %v", w.plan.Scheme, err))
	}
	cfg.Planner = w.plan.Planner
	sc, err := ng.st.Create(cfg)
	if err != nil {
		w.diskFailure(n, err)
		return
	}
	ng.sc = sc
	w.sched.tracef("n%d g%d created scheme %s", n.idx, gi, w.plan.Scheme)
	n.replicate(ng)
}

// followTick is the follower's anti-entropy loop, standing in for the
// production follower's re-connecting record stream: it compares its
// durable position (epoch, seq, state digest) against the current primary
// and schedules a resync on any mismatch — behind (missed records), ahead
// (orphaned suffix after a primary's unsynced log regressed in a crash),
// or diverged at equal seq (the primary rewrote lost records).
func (n *simNode) followTick() {
	w := n.w
	if n.partitioned {
		return
	}
	for gi, ng := range n.groups {
		if ng.st == nil || ng.owned {
			continue
		}
		o := w.ownerNode(w.groups[gi])
		if o == nil || o == n || !w.reachable(n, o) {
			continue
		}
		ong := o.groups[gi]
		if ong.st == nil || !ong.owned || ong.sc == nil {
			continue
		}
		if ng.sc == nil || ng.replEpoch != ong.fenceEpoch || ng.st.LastSeq() != ong.st.LastSeq() {
			w.scheduleResync(n, gi, 0)
			continue
		}
		ob, oerr := ong.sc.Snapshot()
		fb, ferr := ng.sc.Snapshot()
		if oerr == nil && ferr == nil && !bytes.Equal(ob, fb) {
			w.scheduleResync(n, gi, 0)
		}
	}
}

// processGroup runs one rekey period as primary: fence check, journal,
// apply, snapshot cadence, replicate, broadcast.
func (n *simNode) processGroup(ng *nodeGroup) {
	w := n.w
	if w.frozen || !n.alive || ng.st == nil || !ng.owned || ng.sc == nil {
		return
	}
	if !plantedFencingBug {
		l, ok, reachable := w.peekFrom(n, ng.g.shard)
		if !reachable {
			return // cannot verify the lease: stay silent
		}
		if !ok || l.Owner != n.id || l.Epoch != ng.fenceEpoch {
			ng.owned = false
			w.sched.tracef("n%d g%d demoted by fence check", n.idx, ng.g.id)
			return
		}
	}
	g := ng.g
	if len(g.pendingJoins) == 0 && len(g.pendingLeaves) == 0 {
		return // nothing to rekey this period; an empty batch would only dilute repair history
	}
	var b core.Batch
	joins := g.pendingJoins
	g.pendingJoins = nil
	b.Leaves = g.pendingLeaves
	g.pendingLeaves = nil
	for _, meta := range joins {
		b.Joins = append(b.Joins, core.Join{ID: ng.nextID, Meta: meta})
		ng.nextID++
	}
	w.checkFence(n, ng) // omniscient oracle view at journal time

	var prevKey keycrypt.Key
	hadPrev := ng.sc.Size() > 0
	if hadPrev {
		var err error
		if prevKey, err = ng.sc.GroupKey(); err != nil {
			w.violate(ViolationAgreement, "n%d g%d group key before batch: %v", n.idx, g.id, err)
			return
		}
	}

	if err := ng.st.JournalBatch(b); err != nil {
		w.diskFailure(n, err)
		return
	}
	rk, err := ng.sc.ProcessBatch(b)
	if err != nil {
		// Journal-then-fail mutates nothing; replicas fail identically.
		w.sched.tracef("n%d g%d batch rejected (no-op): %v", n.idx, g.id, err)
		n.replicate(ng)
		return
	}
	ng.records++
	if ng.records%snapshotEvery == 0 {
		if err := ng.st.SaveSnapshot(ng.sc, ng.nextID); err != nil {
			w.diskFailure(n, err)
			return
		}
		w.stats.Snapshots++
	}
	n.replicate(ng)
	w.emit(n, ng, b, rk, prevKey, hadPrev)
}

// replicate drains freshly journaled records and streams them to every
// reachable peer. Followers drain their subscription too (their own
// ReplicaApply notifies it) and discard.
func (n *simNode) replicate(ng *nodeGroup) {
	recs := drainSub(ng)
	if !ng.owned || len(recs) == 0 {
		return
	}
	w := n.w
	epoch := ng.fenceEpoch
	gi := ng.g.id
	for _, peer := range w.nodes {
		if peer == n || !w.reachable(n, peer) {
			continue
		}
		peer := peer
		lat := w.latency()
		for i, rec := range recs {
			rec := rec
			w.sched.After(lat+time.Duration(i)*100*time.Microsecond, "repl.record", func() {
				w.deliverRecord(peer, gi, rec, epoch)
			})
		}
	}
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

// deliverRecord applies one streamed record at a follower, mirroring the
// production follower's epoch fencing: stale epochs are rejected, newer
// epochs force a resync (the follower's log may hold a deposed suffix).
func (w *World) deliverRecord(to *simNode, gi int, rec store.Record, epoch uint64) {
	if !to.alive {
		return
	}
	ng := to.groups[gi]
	if ng.st == nil || ng.owned {
		return
	}
	if epoch < ng.replEpoch {
		w.stats.Fenced++
		w.sched.tracef("n%d g%d rejected record seq=%d from stale epoch %d (durable %d)",
			to.idx, gi, rec.Seq, epoch, ng.replEpoch)
		return
	}
	if epoch > ng.replEpoch {
		w.scheduleResync(to, gi, 0)
		return
	}
	sc2, _, nid, err := ng.st.ReplicaApply(ng.sc, rec)
	switch {
	case err == nil:
		ng.sc = sc2
		if nid > ng.nextID {
			ng.nextID = nid
		}
		drainSub(ng)
		w.stats.Replicated++
	case errors.Is(err, store.ErrOutOfOrder):
		if rec.Seq <= ng.st.LastSeq() {
			return // duplicate of an already-applied record
		}
		w.scheduleResync(to, gi, 0)
	default:
		w.diskFailure(to, err)
	}
}

func (w *World) scheduleResync(to *simNode, gi int, delay time.Duration) {
	ng := to.groups[gi]
	if ng.resyncing {
		return
	}
	ng.resyncing = true
	w.sched.After(delay+w.latency(), "resync", func() { w.resync(to, gi) })
}

// resync mirrors the production catch-up handshake: matching durable
// epoch and an uncompacted log means incremental records; anything else
// means a full snapshot install that also erases divergent suffixes.
func (w *World) resync(to *simNode, gi int) {
	ng := to.groups[gi]
	ng.resyncing = false
	if !to.alive || ng.st == nil || ng.owned {
		return
	}
	g := w.groups[gi]
	o := w.ownerNode(g)
	if o == nil || o == to || !w.reachable(to, o) {
		w.scheduleResync(to, gi, 500*time.Millisecond)
		return
	}
	ong := o.groups[gi]
	if !ong.owned || ong.sc == nil {
		w.scheduleResync(to, gi, 500*time.Millisecond)
		return
	}
	if ng.replEpoch > ong.fenceEpoch {
		// The "owner" is itself deposed relative to what we saw durably;
		// wait for the authority to settle.
		w.scheduleResync(to, gi, 500*time.Millisecond)
		return
	}
	if ng.replEpoch == ong.fenceEpoch && ng.st.LastSeq() < ong.st.LastSeq() {
		recs, ok, err := ong.st.RecordsFrom(ng.st.LastSeq())
		if err != nil {
			w.diskFailure(o, err)
			w.scheduleResync(to, gi, 500*time.Millisecond)
			return
		}
		if ok {
			lat := w.latency()
			epoch := ong.fenceEpoch
			for i, rec := range recs {
				rec := rec
				w.sched.After(lat+time.Duration(i)*100*time.Microsecond, "catchup.record", func() {
					w.deliverRecord(to, gi, rec, epoch)
				})
			}
			w.stats.CatchUps++
			return
		}
		// Compacted past the follower: fall through to snapshot.
	}
	blob, err := ong.sc.Snapshot()
	if err != nil {
		w.diskFailure(o, err)
		return
	}
	seq, nid, seed, epoch := ong.st.LastSeq(), ong.nextID, ong.st.SigningSeed(), ong.fenceEpoch
	w.sched.After(w.latency(), "snap.install", func() {
		if !to.alive {
			return
		}
		ng := to.groups[gi]
		if ng.st == nil || ng.owned {
			return
		}
		sc2, err := ng.st.InstallSnapshot(seq, nid, blob)
		if err != nil {
			w.diskFailure(to, err)
			return
		}
		if err := ng.st.AdoptSigningKey(seed); err != nil {
			w.diskFailure(to, err)
			return
		}
		ng.sc = sc2
		ng.nextID = nid
		ng.replEpoch = epoch
		ng.persistEpoch(to, to.stateDir(gi))
		drainSub(ng)
		w.stats.SnapInstalls++
		w.sched.tracef("n%d g%d installed snapshot seq=%d epoch=%d", to.idx, gi, seq, epoch)
	})
}
