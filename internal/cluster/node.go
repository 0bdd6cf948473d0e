package cluster

import (
	"errors"
	"fmt"
	"groupkey/internal/clock"
	"net"
	"sort"
	"sync"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// Node is one member of a replicated key-server cluster. It hosts a
// server.Registry for member traffic, a replication listener for peer
// traffic, one durable store per group, and a lease loop that promotes the
// node to primary for shards it wins and demotes it for shards it loses.
type Node struct {
	cfg Config
	reg *server.Registry

	clientLn net.Listener
	replLn   net.Listener

	mu     sync.Mutex
	shards map[ShardID]*shardState
	groups map[wire.GroupID]*groupState
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// shardState tracks this node's view of one lease-ownership unit.
type shardState struct {
	id     ShardID
	groups []*groupState
	hold   ShardLease // guarded by Node.mu
}

// fenceEpoch is the highest durable fence epoch among the shard's
// replicas: the floor a promotion's lease epoch must exceed.
func (ss *shardState) fenceEpoch() uint64 {
	var fence uint64
	for _, gs := range ss.groups {
		fence = max(fence, gs.rep.Epoch())
	}
	return fence
}

// groupState is one group's replica: the durable store is always open;
// srv is non-nil exactly while this node is the group's primary, and conn
// is the live follower stream while it is not.
type groupState struct {
	g     wire.GroupID
	shard *shardState

	mu   sync.Mutex
	rep  *Replica // rep's scheme fields are guarded by mu
	srv  *server.Server
	conn net.Conn
}

// New opens (and recovers) every group store and assembles the node. No
// network activity happens until Start.
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Authority == nil {
		return nil, errors.New("cluster: Config.Authority is required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("cluster: Config.StateDir is required")
	}
	if _, ok := cfg.peer(cfg.Node); !ok {
		return nil, fmt.Errorf("cluster: node %q not in peer list", cfg.Node)
	}

	// Hosted set: the configured range plus any group with recovered local
	// state beyond it — shrinking -groups must not orphan durable groups.
	hosted := make(map[wire.GroupID]bool, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		hosted[wire.GroupID(g)] = true
	}
	existing, err := store.ListGroupDirs(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	for _, g := range existing {
		hosted[g] = true
	}
	ids := make([]wire.GroupID, 0, len(hosted))
	for g := range hosted {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	n := &Node{
		cfg:    cfg,
		reg:    server.NewRegistry(),
		shards: make(map[ShardID]*shardState),
		groups: make(map[wire.GroupID]*groupState),
		stop:   make(chan struct{}),
	}
	n.reg.SetResolver(n)

	for _, g := range ids {
		rep, _, err := OpenReplica(store.GroupDir(cfg.StateDir, g), store.Options{
			Fsync:   cfg.Fsync,
			Clock:   cfg.Clock,
			Metrics: cfg.StoreMetrics,
			SchemeOptions: []core.Option{
				core.WithKeyIDBase(store.GroupKeyIDBase(g)),
			},
		}, cfg.Metrics)
		if err != nil {
			n.closeStores()
			return nil, fmt.Errorf("cluster: group %d: %w", g, err)
		}
		sid := ShardOf(g, cfg.Shards)
		ss := n.shards[sid]
		if ss == nil {
			ss = &shardState{id: sid}
			n.shards[sid] = ss
		}
		gs := &groupState{g: g, shard: ss, rep: rep}
		ss.groups = append(ss.groups, gs)
		n.groups[g] = gs
	}
	return n, nil
}

// Start begins serving: member traffic on clientLn, replication on replLn.
// Unless Config.NoTicker is set, the lease loop starts renewing at a third
// of the lease TTL (with an immediate first pass).
func (n *Node) Start(clientLn, replLn net.Listener) {
	n.clientLn = clientLn
	n.replLn = replLn
	n.reg.Serve(clientLn)
	n.wg.Add(1)
	go n.acceptRepl(replLn)
	for _, gs := range n.groups {
		n.wg.Add(1)
		go n.followLoop(gs)
	}
	if !n.cfg.NoTicker {
		n.Tick()
		n.wg.Add(1)
		go n.leaseLoop()
	}
}

// Registry exposes the node's member-facing registry (for tests and for
// wiring server-level instrumentation).
func (n *Node) Registry() *server.Registry { return n.reg }

// ClientAddr returns the member-facing listen address.
func (n *Node) ClientAddr() net.Addr { return n.clientLn.Addr() }

// ReplAddr returns the replication listen address.
func (n *Node) ReplAddr() net.Addr { return n.replLn.Addr() }

// Locate implements server.Resolver: members asking any node for a group
// it does not host are redirected to the shard's current lease holder.
func (n *Node) Locate(g wire.GroupID) (string, uint64, bool) {
	n.mu.Lock()
	_, known := n.groups[g]
	n.mu.Unlock()
	if !known {
		return "", 0, false
	}
	lease, ok := n.cfg.Authority.Peek(ShardOf(g, n.cfg.Shards))
	if !ok || lease.Owner == n.cfg.Node {
		// No owner, or this node owns it but has not finished promoting:
		// redirecting to ourselves would only loop the client.
		return "", 0, false
	}
	peer, ok := n.cfg.peer(lease.Owner)
	if !ok {
		return "", 0, false
	}
	return peer.Advertised(), lease.Epoch, true
}

// leaseLoop renews every shard at a third of the lease TTL.
func (n *Node) leaseLoop() {
	defer n.wg.Done()
	ticker := clock.Or(n.cfg.Clock).NewTicker(n.cfg.LeaseTTL / 3)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C():
			n.Tick()
		}
	}
}

// sortedShardsLocked returns shard states in ascending shard-ID order,
// so lease acquisition and demotion visit the authority deterministically
// instead of in Go's randomized map order.
func (n *Node) sortedShardsLocked() []*shardState {
	out := make([]*shardState, 0, len(n.shards))
	for _, ss := range n.shards {
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Tick runs one lease-maintenance pass (ShardLease.Step) over every
// shard, promoting on wins, demoting on losses, and re-promoting when a
// shard was re-won under a fresh epoch (continuity was lost, so the fence
// must be re-armed).
func (n *Node) Tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	for _, ss := range n.sortedShardsLocked() {
		demote, promote, err := ss.hold.Step(n.cfg.Authority, ss.id, n.cfg.Node, n.cfg.LeaseTTL, ss.fenceEpoch())
		if demote {
			if err != nil {
				n.cfg.Logf("cluster: shard %d lost: %v", ss.id, err)
			}
			n.demoteLocked(ss) // lost, or re-won under a new epoch (re-arm)
		}
		if promote {
			n.promoteLocked(ss)
		}
	}
}

// promoteLocked turns every group of the shard into a live primary server
// under the shard's lease. Called with Node.mu held.
func (n *Node) promoteLocked(ss *shardState) {
	lease := ss.hold.Lease
	n.cfg.Metrics.noteTransition(+1)
	n.cfg.Logf("cluster: node %s promoting shard %d (epoch %d)", n.cfg.Node, ss.id, lease.Epoch)
	for _, gs := range ss.groups {
		if err := n.promoteGroup(gs, lease); err != nil {
			n.cfg.Logf("cluster: group %d: promotion failed: %v", gs.g, err)
		}
	}
}

// promoteGroup builds a primary server over the group's replica state.
func (n *Node) promoteGroup(gs *groupState, lease Lease) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.conn != nil {
		gs.conn.Close() // stop the follower stream; the loop idles while owned
		gs.conn = nil
	}
	rep := gs.rep
	if err := rep.Promote(lease.Epoch, n.cfg.Scheme); err != nil {
		return err
	}
	srv := server.NewWithKey(rep.Scheme, nil, rep.Store.SigningKey())
	srv.Persist(rep.Store, n.cfg.SnapshotEvery)
	srv.SetNextID(rep.NextID)
	if err := srv.SetLastRekey(rep.LastRekey); err != nil {
		srv.Close()
		return err
	}
	srv.SetFence(LeaseFence{Auth: n.cfg.Authority, Lease: lease, Metrics: n.cfg.Metrics})
	if err := n.reg.Add(gs.g, srv); err != nil {
		srv.Close()
		return err
	}
	gs.srv = srv
	return nil
}

// demoteLocked tears the shard's primaries down, capturing their final
// scheme state so the follower loops resume from it. Called with Node.mu
// held.
func (n *Node) demoteLocked(ss *shardState) {
	n.cfg.Metrics.noteTransition(-1)
	n.cfg.Logf("cluster: node %s demoting shard %d", n.cfg.Node, ss.id)
	for _, gs := range ss.groups {
		gs.mu.Lock()
		srv := gs.srv
		gs.srv = nil
		gs.mu.Unlock()
		if srv == nil {
			continue
		}
		n.reg.Remove(gs.g)
		// Capture the server's final state under its own lock, then shut it
		// down; the follower loop re-syncs from the new primary anyway (the
		// epoch changed), so this is just the freshest local starting point.
		_ = srv.BootstrapState(func(sc core.Scheme, nextID keytree.MemberID) error {
			gs.mu.Lock()
			gs.rep.Scheme, gs.rep.NextID = sc, nextID
			gs.mu.Unlock()
			return nil
		})
		srv.Close()
	}
}

// ownsShard reports whether this node currently serves the shard.
func (n *Node) ownsShard(id ShardID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	ss := n.shards[id]
	return ss != nil && ss.hold.Owned
}

// Close stops serving, demotes every owned shard locally (the lease is
// left to expire — a crashing process could not release it either) and
// closes the stores.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	for _, ss := range n.sortedShardsLocked() {
		if ss.hold.Owned {
			ss.hold.Owned = false
			n.demoteLocked(ss)
		}
	}
	n.mu.Unlock()

	if n.replLn != nil {
		n.replLn.Close()
	}
	err := n.reg.Close()
	for _, gs := range n.groups {
		gs.mu.Lock()
		if gs.conn != nil {
			gs.conn.Close()
			gs.conn = nil
		}
		gs.mu.Unlock()
	}
	n.wg.Wait()
	n.closeStores()
	return err
}

// closeStores closes every group store (used by Close and New's unwind).
func (n *Node) closeStores() {
	for _, gs := range n.groups {
		gs.rep.Store.Close()
	}
}
