package dst

import (
	"fmt"
	"sort"
	"time"

	"groupkey/internal/cluster"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/netsim"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

const (
	repairEvery   = 200 * time.Millisecond
	snapshotEvery = 16 // journaled records between owner snapshots
)

// simMember is one client: a real member.Member key store plus its link
// loss model and convergence bookkeeping.
type simMember struct {
	id    keytree.MemberID
	m     *member.Member
	loss  netsim.LossProcess
	burst netsim.LossProcess // non-nil while a loss burst overrides loss
}

func (sm *simMember) lost(w *World) bool {
	lp := sm.loss
	if sm.burst != nil {
		lp = sm.burst
	}
	return lp.Lost(w.sched.rng)
}

// emission is one broadcast rekey, kept for SLO accounting.
type emission struct {
	epoch   uint64
	at      time.Duration
	key     keycrypt.Key
	waiting map[keytree.MemberID]bool
}

// simGroup is the world's view of one group: the member population and
// its newest broadcast.
type simGroup struct {
	id       int
	shard    cluster.ShardID
	members  map[keytree.MemberID]*simMember
	departed map[keytree.MemberID]*simMember

	pendingJoins  []core.MemberMeta
	pendingLeaves []keytree.MemberID

	last   *emission // newest broadcast (SLO window)
	rekeys int
}

// World is one simulation run.
type World struct {
	plan    Plan
	sched   *Scheduler
	trace   *Trace
	auth    *cluster.MemAuthority
	nodes   []*simNode
	groups  []*simGroup
	fsync   store.FsyncPolicy
	vio     []Violation
	stats   Stats
	churnOn bool
	// nonces feeds the key wraps of repair replies, which the server
	// draws from its own entropy source and never journals.
	nonces *keycrypt.DeterministicReader
	// frozen stops primaries from emitting new rekeys so in-flight
	// deliveries and repairs can drain before the terminal oracles read
	// the world.
	frozen bool
}

func newWorld(plan Plan, keepTrace bool) *World {
	trace := newTrace(keepTrace)
	w := &World{
		plan:   plan,
		sched:  newScheduler(plan.Seed, trace),
		trace:  trace,
		fsync:  store.FsyncAlways,
		nonces: keycrypt.NewDeterministicReader(plan.Seed),
	}
	if plan.Fsync == "never" {
		w.fsync = store.FsyncNever
	}
	w.auth = cluster.NewMemAuthority(func() time.Time { return w.sched.Time() })
	for g := 0; g < plan.Groups; g++ {
		w.groups = append(w.groups, &simGroup{
			id:       g,
			shard:    cluster.ShardID(g),
			members:  make(map[keytree.MemberID]*simMember),
			departed: make(map[keytree.MemberID]*simMember),
		})
	}
	for i := 0; i < plan.Nodes; i++ {
		w.nodes = append(w.nodes, newSimNode(w, i))
	}
	return w
}

func (w *World) run() {
	// Seed the population: half the target size joins before the first
	// rekey period; churn supplies the rest.
	for _, g := range w.groups {
		for i := 0; i < w.plan.Members/2; i++ {
			g.pendingJoins = append(g.pendingJoins, w.newMeta())
		}
	}
	for _, n := range w.nodes {
		n.boot()
	}
	w.churnOn = true
	w.sched.After(w.plan.Period/2, "churn", w.churnTick)
	for gi := range w.groups {
		g := w.groups[gi]
		w.sched.After(repairEvery+time.Duration(gi)*7*time.Millisecond, "repair", func() { w.repairTick(g) })
	}
	for _, op := range w.plan.Ops {
		op := op
		if op.At > w.plan.Duration {
			continue
		}
		w.sched.After(op.At, string(op.Kind), func() { w.applyOp(op) })
	}

	w.sched.Run(w.plan.Duration)

	// Quiesce: stop churn, heal everything, revive the dead, then let
	// heartbeats, catch-up and repair converge the system before the
	// final oracle pass.
	w.churnOn = false
	settle := 3*w.plan.LeaseTTL + 6*w.plan.Period
	w.heal()
	w.sched.Run(w.plan.Duration + settle)
	w.reconcileMembership()
	end := w.plan.Duration + 2*settle
	w.sched.Run(end)
	// Re-registrations cascade (each one is a leave+join that triggers
	// another rekey); give the cascade bounded extra time to go quiet
	// before freezing emissions and draining in-flight work.
	for i := 0; i < 10 && !w.quiet(); i++ {
		end += time.Second
		w.sched.Run(end)
	}
	w.frozen = true
	w.sched.Run(end + time.Second)
	w.endChecks()
}

// newMeta draws join metadata for a fresh member.
func (w *World) newMeta() core.MemberMeta {
	return core.MemberMeta{
		LossRate:  w.plan.Loss,
		LongLived: w.sched.rng.IntN(2) == 0,
	}
}

// churnTick queues joins and leaves, keeping the population near target.
func (w *World) churnTick() {
	if !w.churnOn {
		return
	}
	rng := w.sched.rng
	g := w.groups[rng.IntN(len(w.groups))]
	switch {
	case len(g.members) < 4 || (len(g.members) < w.plan.Members && rng.IntN(2) == 0):
		g.pendingJoins = append(g.pendingJoins, w.newMeta())
	case len(g.members) > 0:
		ids := sortedMemberIDs(g.members)
		id := ids[rng.IntN(len(ids))]
		if !pendingLeave(g, id) {
			g.pendingLeaves = append(g.pendingLeaves, id)
		}
	}
	w.sched.After(time.Duration(100+rng.IntN(300))*time.Millisecond, "churn", w.churnTick)
}

func pendingLeave(g *simGroup, id keytree.MemberID) bool {
	for _, l := range g.pendingLeaves {
		if l == id {
			return true
		}
	}
	return false
}

func sortedMemberIDs(m map[keytree.MemberID]*simMember) []keytree.MemberID {
	ids := make([]keytree.MemberID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// latency draws one network hop's delay.
func (w *World) latency() time.Duration {
	return time.Duration(5+w.sched.rng.IntN(15)) * time.Millisecond
}

func (w *World) reachable(a, b *simNode) bool {
	return !a.partitioned && !b.partitioned
}

// ---- fault plan application ----

func (w *World) applyOp(op Op) {
	if op.Node >= len(w.nodes) {
		return
	}
	n := w.nodes[op.Node]
	switch op.Kind {
	case OpCrash:
		w.crashNode(n, "plan")
	case OpRestart:
		w.restartNode(n)
	case OpPartition:
		n.partitioned = true
		w.sched.tracef("n%d partitioned for %s", n.idx, op.Dur)
		w.sched.After(op.Dur, "heal", func() {
			if n.partitioned {
				n.partitioned = false
				w.sched.tracef("n%d healed", n.idx)
			}
		})
	case OpHeal:
		n.partitioned = false
		w.sched.tracef("n%d healed (op)", n.idx)
	case OpStall:
		// The process freezes: its clock reads behind by the stall and its
		// timers fire late, in jittered order — the race window the fence
		// epoch exists for.
		n.clk.skew -= op.Dur
		n.stalledUntil = w.sched.Now() + op.Dur
		w.sched.tracef("n%d stalled for %s", n.idx, op.Dur)
	case OpSlowDisk:
		n.slowFactor = op.Frac
		w.sched.tracef("n%d slow disk x%.0f for %s", n.idx, op.Frac, op.Dur)
		w.sched.After(op.Dur, "fastdisk", func() { n.slowFactor = 0 })
	case OpTorn:
		if n.alive {
			n.fs.FailNextWrite(op.Frac)
			w.sched.tracef("n%d armed torn write (keep %.2f)", n.idx, op.Frac)
		}
	case OpLossBurst:
		if op.Grp >= len(w.groups) {
			return
		}
		g := w.groups[op.Grp]
		w.sched.tracef("g%d loss burst %.2f for %s", g.id, op.Frac, op.Dur)
		for _, sm := range g.members {
			sm := sm
			ge, err := netsim.NewGilbertElliott(0.3, 0.1, 0.02, op.Frac)
			if err == nil {
				sm.burst = ge
			}
		}
		w.sched.After(op.Dur, "lossheal", func() {
			for _, sm := range g.members {
				sm.burst = nil
			}
		})
	}
}

func (w *World) crashNode(n *simNode, why string) {
	if !n.alive {
		return
	}
	n.alive = false
	n.inc++
	unsyncedKeep := func(unsynced int) int {
		if unsynced == 0 {
			return 0
		}
		return w.sched.rng.IntN(unsynced + 1)
	}
	n.fs.Crash(unsyncedKeep)
	for _, ng := range n.groups {
		*ng = nodeGroup{g: ng.g}
	}
	w.stats.Crashes++
	w.sched.tracef("n%d crashed (%s)", n.idx, why)
}

func (w *World) restartNode(n *simNode) {
	if n.alive {
		return
	}
	n.alive = true
	n.inc++
	n.openStores()
	n.armTicks()
	w.sched.tracef("n%d restarted", n.idx)
}

// diskFailure is the sim's kernel panic: a store I/O error crashes the
// node; it reboots shortly after and recovers from durable state.
func (w *World) diskFailure(n *simNode, err error) {
	w.sched.tracef("n%d disk failure: %v", n.idx, err)
	w.crashNode(n, "disk")
	w.sched.After(time.Second, "reboot", func() { w.restartNode(n) })
}

// heal clears every standing fault so the final convergence pass runs on
// a healthy cluster.
func (w *World) heal() {
	for _, n := range w.nodes {
		n.partitioned = false
		n.slowFactor = 0
		n.clk.skew = 0
		n.stalledUntil = 0
		if !n.alive {
			w.restartNode(n)
		}
	}
	for _, g := range w.groups {
		for _, sm := range g.members {
			sm.burst = nil
		}
	}
}

// ---- member-facing delivery ----

// emit broadcasts one rekey: welcomes ride the reliable registration
// channel, multicast items face per-member loss, departed members snoop
// everything forever.
func (w *World) emit(n *simNode, ng *nodeGroup, b core.Batch, rk *core.Rekey, prevKey keycrypt.Key, hadPrev bool) {
	g := ng.g
	items := rk.AllItems()
	gk, err := ng.rep.Scheme.GroupKey()
	if err != nil {
		w.sched.tracef("n%d g%d group key after batch: %v", n.idx, g.id, err)
		return
	}
	w.sched.tracef("n%d g%d rekey epoch=%d joins=%d leaves=%d items=%d",
		n.idx, g.id, rk.Epoch, len(b.Joins), len(b.Leaves), len(items))
	g.rekeys++
	w.stats.Rekeys++

	// Leavers freeze into the departed set before delivery: from here on
	// they see every broadcast and must learn nothing. The scheme that
	// processed their departure must no longer hold them.
	for _, id := range b.Leaves {
		if ng.rep.Scheme.Contains(id) {
			w.violate(ViolationForwardSecrecy, "g%d epoch %d still holds departed member %d", g.id, rk.Epoch, id)
		}
		if sm := g.members[id]; sm != nil {
			delete(g.members, id)
			g.departed[id] = sm
		}
	}

	em := &emission{epoch: rk.Epoch, at: w.sched.Now(), key: gk,
		waiting: make(map[keytree.MemberID]bool)}
	g.last = em

	// Joiners: reliable welcome plus the full frame.
	for _, j := range b.Joins {
		wk, ok := rk.Welcome[j.ID]
		if !ok {
			w.violate(ViolationAgreement, "no welcome key for joiner %d in g%d epoch %d", j.ID, g.id, rk.Epoch)
			continue
		}
		id := j.ID
		sm := &simMember{id: id, m: member.New(id, wk), loss: netsim.Bernoulli{P: w.plan.Loss}}
		if old := g.members[id]; old != nil {
			// A failover reassigned this ID; the old holder's store freezes.
			g.departed[id] = old
		}
		g.members[id] = sm
		em.waiting[id] = true
		w.sched.After(w.latency(), "welcome", func() {
			sm.m.Apply(items)
			w.checkBackward(g, sm, rk.Epoch, prevKey, hadPrev)
			w.noteConverged(g, em, sm)
		})
	}

	// Existing members: lossy multicast of the items addressed to each,
	// as the key server's seal addresses them.
	ids := sortedMemberIDs(g.members)
	var index wire.ScopedIndex
	index.Build(items, ids, ng.rep.Scheme.PathIDs)
	for pos, id := range ids {
		sm := g.members[id]
		if em.waiting[id] {
			continue // joiner, handled above
		}
		var recv []keytree.Item
		for _, i := range index.At(pos) {
			if sm.lost(w) {
				continue
			}
			recv = append(recv, items[i])
		}
		em.waiting[id] = true
		w.sched.After(w.latency(), "rekey.mcast", func() {
			sm.m.Apply(recv)
			w.noteConverged(g, em, sm)
		})
	}

	// Departed members snoop the full multicast; forward secrecy says it
	// is worthless to them. The check only binds once the authoritative
	// scheme actually excludes the member: an unfsynced leave record lost
	// to a crash un-evicts the member (the documented FsyncNever trade),
	// so such members move back to the current set instead.
	for _, id := range sortedMemberIDs(g.departed) {
		dm := g.departed[id]
		dm.m.Apply(items)
		if ng.rep.Scheme.Contains(id) {
			if g.members[id] == nil {
				delete(g.departed, id)
				g.members[id] = dm
				w.sched.tracef("g%d member %d un-evicted (leave record lost to a crash)", g.id, id)
			}
			continue
		}
		if dm.m.Has(gk) {
			w.violate(ViolationForwardSecrecy,
				"departed member %d recovered g%d group key at epoch %d", id, g.id, rk.Epoch)
		}
	}

	if w.plan.SLO > 0 {
		w.sched.After(w.plan.SLO, "slo", func() { w.checkSLO(g, em) })
	}
}

// repairTick answers members that are behind the way the key server
// answers a resume or a pull: a member without the serving owner's group
// key is sent its current key path (core.PathItems), reliably, and adopts
// it from its leaf up (member.ApplyPath) however many epochs it missed. A
// member keeps its individual key for life, so one that cannot open its
// own path is a violation. A member the owner's scheme does not hold is
// left to rejoinOrphans.
func (w *World) repairTick(g *simGroup) {
	w.sched.After(repairEvery, "repair", func() { w.repairTick(g) })
	o := w.ownerNode(g)
	if o == nil || o.partitioned || !o.groups[g.id].hold.Owned || o.groups[g.id].scheme() == nil {
		return
	}
	sc := o.groups[g.id].scheme()
	gk, err := sc.GroupKey()
	if err != nil {
		return
	}
	for _, id := range sortedMemberIDs(g.members) {
		sm := g.members[id]
		if !sm.m.Has(gk) && sc.Contains(id) {
			items, err := core.PathItems(sc, id, w.nonces)
			if err != nil {
				continue
			}
			if len(items) == 0 || !sm.m.ApplyPath(items[0].Wrapped.WrapperID, items) {
				w.violate(ViolationAgreement, "g%d member %d cannot open its own key path", g.id, id)
				continue
			}
			w.stats.Repairs++
		}
		if g.last != nil {
			w.noteConverged(g, g.last, sm)
		}
	}
}

func (w *World) noteConverged(g *simGroup, em *emission, sm *simMember) {
	if !em.waiting[sm.id] || !sm.m.Has(em.key) {
		return
	}
	delete(em.waiting, sm.id)
	spread := w.sched.Now() - em.at
	if spread > w.stats.MaxSpread {
		w.stats.MaxSpread = spread
	}
}

// rejoinOrphans re-admits members stranded on a dead chain: a failover to
// a replica that had not yet applied their join leaves them outside the
// authoritative scheme, exactly like a client whose resume is rejected —
// it joins again as a new member.
func (w *World) rejoinOrphans() {
	for _, g := range w.groups {
		o := w.ownerNode(g)
		if o == nil || o.groups[g.id].scheme() == nil {
			continue
		}
		sc := o.groups[g.id].scheme()
		for _, id := range sortedMemberIDs(g.members) {
			if sc.Contains(id) {
				continue
			}
			sm := g.members[id]
			delete(g.members, id)
			g.departed[id] = sm
			g.pendingJoins = append(g.pendingJoins, w.newMeta())
			w.stats.Rejoins++
			w.sched.tracef("g%d member %d orphaned by failover; rejoining fresh", g.id, id)
		}
	}
}

// quiet reports whether membership churn has fully drained: no queued
// joins or leaves, and every current member holds the newest broadcast
// key.
func (w *World) quiet() bool {
	for _, g := range w.groups {
		if len(g.pendingJoins)+len(g.pendingLeaves) > 0 {
			return false
		}
		if g.last == nil {
			continue
		}
		for _, sm := range g.members {
			if !sm.m.Has(g.last.key) {
				return false
			}
		}
	}
	return true
}

// reconcileMembership runs the settle-phase client recovery sweeps, in
// dependency order: first pull back members whose eviction never became
// durable (they re-enter the current set and so face the sweep below),
// then re-admit members stranded outside the authoritative scheme.
// Everyone else left behind is repairTick's, and the agreement oracle's.
func (w *World) reconcileMembership() {
	w.unEvictLost()
	w.rejoinOrphans()
}

// unEvictLost moves departed members the authoritative scheme still
// contains back into the current set: their leave records died with a
// crashed primary's unsynced log, so cryptographically they were never
// evicted (the documented FsyncNever trade). Mid-run, emit applies the
// same rule per broadcast; this sweep covers groups that had no broadcast
// between the lossy crash and the settle phase.
func (w *World) unEvictLost() {
	for _, g := range w.groups {
		o := w.ownerNode(g)
		if o == nil || o.groups[g.id].scheme() == nil {
			continue
		}
		sc := o.groups[g.id].scheme()
		for _, id := range sortedMemberIDs(g.departed) {
			if !sc.Contains(id) || g.members[id] != nil || pendingLeave(g, id) {
				continue
			}
			dm := g.departed[id]
			delete(g.departed, id)
			g.members[id] = dm
			w.sched.tracef("g%d member %d un-evicted (leave record lost to a crash)", g.id, id)
		}
	}
}

// ownerNode resolves the current lease holder to a live node.
func (w *World) ownerNode(g *simGroup) *simNode {
	l, ok := w.auth.Peek(g.shard)
	if !ok {
		return nil
	}
	for _, n := range w.nodes {
		if n.alive && n.id == l.Owner {
			return n
		}
	}
	return nil
}

func (w *World) violate(kind ViolationKind, format string, args ...any) {
	v := Violation{Kind: kind, At: w.sched.Now(), Detail: fmt.Sprintf(format, args...)}
	w.vio = append(w.vio, v)
	w.sched.tracef("VIOLATION %s: %s", v.Kind, v.Detail)
}
