package cluster

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

const testTimeout = 10 * time.Second

// startCluster builds an in-process cluster: every node gets its own state
// directory and real TCP listeners, shares the authority, and runs without
// the background lease loop — tests drive Tick explicitly so ownership
// changes are deterministic.
func startCluster(t *testing.T, names []string, auth Authority, groups, shards int) []*Node {
	t.Helper()
	type pair struct{ client, repl net.Listener }
	listeners := make([]pair, len(names))
	peers := make([]Peer, len(names))
	for i, name := range names {
		cl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = pair{cl, rl}
		peers[i] = Peer{ID: NodeID(name), ClientAddr: cl.Addr().String(), ReplAddr: rl.Addr().String()}
	}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = startNode(t, Config{
			Node:      NodeID(name),
			Peers:     peers,
			Shards:    shards,
			Groups:    groups,
			StateDir:  t.TempDir(),
			Authority: auth,
		}, listeners[i].client, listeners[i].repl)
	}
	return nodes
}

// startNode builds and starts one node with the tests' defaults: a OneTree
// scheme, a one-minute lease and no background lease loop.
func startNode(t *testing.T, cfg Config, client, repl net.Listener) *Node {
	t.Helper()
	cfg.Scheme = store.SchemeConfig{Kind: store.SchemeOneTree, Degree: 4}
	cfg.LeaseTTL = time.Minute
	cfg.DialTimeout = 2 * time.Second
	cfg.NoTicker = true
	cfg.Logf = t.Logf
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("node %s: %v", cfg.Node, err)
	}
	n.Start(client, repl)
	t.Cleanup(func() { n.Close() })
	return n
}

// joinGroup dials addr for group g and pumps the owner's rekey loop until
// the join completes (joins are admitted at the next rekey).
func joinGroup(t *testing.T, owner *Node, addr string, g wire.GroupID) *server.Client {
	t.Helper()
	type result struct {
		c   *server.Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := server.DialGroup(addr, g, wire.JoinRequest{}, testTimeout)
		ch <- result{c, err}
	}()
	deadline := time.After(testTimeout)
	for {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("join group %d via %s: %v", g, addr, r.err)
			}
			t.Cleanup(func() { r.c.Close() })
			return r.c
		case <-deadline:
			t.Fatalf("join group %d via %s timed out", g, addr)
		case <-time.After(50 * time.Millisecond):
			if srv := owner.Registry().Get(g); srv != nil {
				srv.RekeyNow()
			}
		}
	}
}

// waitKey polls until c holds k.
func waitKey(t *testing.T, c *server.Client, k keycrypt.Key) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !c.HasKey(k) {
		if time.Now().After(deadline) {
			t.Fatalf("member %d never received key %v", c.ID(), k.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSync polls until the follower's replica of group g has caught up
// with the primary's log.
func waitSync(t *testing.T, primary, follower *Node, g wire.GroupID) {
	t.Helper()
	want := primary.groups[g].rep.Store.LastSeq()
	deadline := time.Now().Add(testTimeout)
	for {
		fgs := follower.groups[g]
		fgs.mu.Lock()
		have, sc := fgs.rep.Store.LastSeq(), fgs.rep.Scheme
		fgs.mu.Unlock()
		if have >= want && sc != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower %s stuck at seq %d, want %d", follower.cfg.Node, have, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// schemeSnapshot returns the canonical scheme blob of the node's replica
// (or live server) for group g.
func schemeSnapshot(t *testing.T, n *Node, g wire.GroupID) []byte {
	t.Helper()
	if srv := n.Registry().Get(g); srv != nil {
		var blob []byte
		err := srv.BootstrapState(func(sc core.Scheme, _ keytree.MemberID) error {
			var err error
			blob, err = sc.Snapshot()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	gs := n.groups[g]
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.rep.Scheme == nil {
		t.Fatalf("node %s has no scheme for group %d", n.cfg.Node, g)
	}
	blob, err := gs.rep.Scheme.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// groupKeyOf returns the node's current group key for g, from the live
// server when primary or from the replica otherwise.
func groupKeyOf(t *testing.T, n *Node, g wire.GroupID) keycrypt.Key {
	t.Helper()
	var k keycrypt.Key
	if srv := n.Registry().Get(g); srv != nil {
		err := srv.BootstrapState(func(sc core.Scheme, _ keytree.MemberID) error {
			var err error
			k, err = sc.GroupKey()
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	gs := n.groups[g]
	gs.mu.Lock()
	defer gs.mu.Unlock()
	k, err := gs.rep.Scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestClusterFailover is the cross-node secrecy oracle: members churn
// against the primary, a follower's replica must be byte-identical, and
// after the primary's lease is force-expired (a simulated SIGKILL) the
// promoted follower serves resumes with the pinned signing key, keeps
// departed members excluded, and the deposed primary is fenced out of
// every mutation.
func TestClusterFailover(t *testing.T) {
	auth := NewMemAuthority(nil)
	nodes := startCluster(t, []string{"a", "b", "c"}, auth, 1, 1)
	a, b, c := nodes[0], nodes[1], nodes[2]

	a.Tick() // a wins the only shard (epoch 1)
	b.Tick()
	c.Tick()
	if !a.ownsShard(0) || b.ownsShard(0) || c.ownsShard(0) {
		t.Fatal("expected a to own shard 0 exclusively")
	}

	// Members join through the *other* nodes: redirects must route them to
	// the owner.
	alice := joinGroup(t, a, c.ClientAddr().String(), 0)
	bob := joinGroup(t, a, b.ClientAddr().String(), 0)
	srvA := a.Registry().Get(0)
	if srvA.Size() != 2 {
		t.Fatalf("primary sees %d members, want 2", srvA.Size())
	}
	// Dave stays, so bob's departure rekeys a tree of two.
	joinGroup(t, a, b.ClientAddr().String(), 0)

	preLeaveKey := groupKeyOf(t, a, 0)
	preLeaveBlob, err := keycrypt.Seal(preLeaveKey, []byte("pre-departure"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The welcome reaches bob before the rekey that admitted him.
	if err := bob.WaitEpoch(srvA.Epoch(), testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.TryOpen(preLeaveBlob); err != nil {
		t.Fatalf("bob cannot read current data: %v", err)
	}

	// Alice's saved state predates bob's departure: the node she resumes
	// on after the failover must bring her past it.
	aliceState, err := alice.State()
	if err != nil {
		t.Fatal(err)
	}

	// Bob departs; the rekey must exclude him everywhere, including on
	// whatever node is promoted later.
	if err := bob.Leave(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srvA.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	postLeaveEpoch := srvA.Epoch()
	if err := alice.WaitEpoch(postLeaveEpoch, testTimeout); err != nil {
		t.Fatal(err)
	}

	// Followers converge to a byte-identical replica.
	waitSync(t, a, b, 0)
	waitSync(t, a, c, 0)
	want := schemeSnapshot(t, a, 0)
	if !bytes.Equal(want, schemeSnapshot(t, b, 0)) {
		t.Fatal("follower b diverged from the primary's scheme state")
	}
	if !bytes.Equal(want, schemeSnapshot(t, c, 0)) {
		t.Fatal("follower c diverged from the primary's scheme state")
	}
	if !groupKeyOf(t, b, 0).Equal(groupKeyOf(t, a, 0)) {
		t.Fatal("follower b derived a different group key")
	}

	// The primary dies: its lease lapses without a handover.
	auth.Expire(0)
	if _, err := srvA.RekeyNow(); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("deposed primary rekeyed: %v", err)
	}
	if _, err := srvA.RotateNow(); !errors.Is(err, server.ErrFenced) {
		t.Fatalf("deposed primary rotated: %v", err)
	}

	// b takes over under a fresh epoch.
	b.Tick()
	if !b.ownsShard(0) {
		t.Fatal("b did not take over shard 0")
	}
	srvB := b.Registry().Get(0)
	if srvB == nil {
		t.Fatal("b owns the shard but hosts no server")
	}
	// Alice resumes through c — redirected to b — with her pinned server
	// key still valid, because b adopted the group's signing identity. Her
	// key path, sealed by b, gives her the post-departure group key.
	alice.Close()
	resumed, err := server.ResumeDial(c.ClientAddr().String(), aliceState, testTimeout)
	if err != nil {
		t.Fatalf("resume after failover: %v", err)
	}
	defer resumed.Close()
	if resumed.ID() != alice.ID() {
		t.Fatalf("resumed as member %d, want %d", resumed.ID(), alice.ID())
	}
	waitKey(t, resumed, groupKeyOf(t, b, 0))
	if err := resumed.WaitEpoch(postLeaveEpoch, testTimeout); err != nil {
		t.Fatal(err)
	}

	// Post-failover rekey: alice follows, departed bob stays excluded.
	if _, err := srvB.RekeyNow(); err != nil {
		t.Fatalf("promoted primary cannot rekey: %v", err)
	}
	if err := resumed.WaitEpoch(srvB.Epoch(), testTimeout); err != nil {
		t.Fatal(err)
	}
	postFailoverKey := groupKeyOf(t, b, 0)
	if postFailoverKey.Equal(preLeaveKey) {
		t.Fatal("group key not refreshed after the departure")
	}
	blob, err := keycrypt.Seal(postFailoverKey, []byte("post-failover secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.TryOpen(blob); err != nil {
		t.Fatalf("resumed member cannot read post-failover data: %v", err)
	}
	if _, err := bob.TryOpen(blob); err == nil {
		t.Fatal("departed member decrypted post-failover data (forward secrecy broken across failover)")
	}

	// The deposed node eventually notices and demotes; new members joining
	// through it are redirected to b.
	a.Tick()
	if a.ownsShard(0) {
		t.Fatal("a still believes it owns shard 0")
	}
	carol := joinGroup(t, b, a.ClientAddr().String(), 0)
	if carol.ID() == 0 || carol.ID() == alice.ID() {
		t.Fatalf("carol got member ID %d", carol.ID())
	}
}

// TestRestartedPrimaryResyncsFollower: a primary that comes back inside
// its lease TTL with a log that lost its newest records (its state dir as
// it was at seq k, while the follower already holds k+m) must not serve
// that shorter log under the old epoch, where the follower would keep the
// lost suffix. It waits for the old lease to lapse and promotes under a
// new epoch, which sends the follower a snapshot.
func TestRestartedPrimaryResyncsFollower(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Unix(1000, 0).UnixNano())
	auth := NewMemAuthority(func() time.Time { return time.Unix(0, now.Load()) })
	nodes := startCluster(t, []string{"a", "b"}, auth, 1, 1)
	a, b := nodes[0], nodes[1]
	a.Tick()
	b.Tick()
	// Joins, unlike rotations, leave marks a later batch cannot overwrite:
	// each joiner's leaf key comes from its own record's seed.
	join := func(n *Node) { joinGroup(t, n, n.ClientAddr().String(), 0) }
	lastSeq := func(n *Node) uint64 { return n.groups[0].rep.Store.LastSeq() }

	join(a)
	join(a)
	saved := t.TempDir()
	copyDir(t, a.cfg.StateDir, saved) // the primary's state at seq k
	join(a)
	join(a)
	waitSync(t, a, b, 0) // the follower holds k+m
	followerSeq := lastSeq(b)

	// The primary dies and restarts from the state it had at k, inside
	// the TTL of its lease, on the same addresses.
	cfg := a.cfg
	a.Close()
	if err := os.RemoveAll(cfg.StateDir); err != nil {
		t.Fatal(err)
	}
	copyDir(t, saved, cfg.StateDir)
	self, _ := cfg.peer(cfg.Node)
	cl, err := net.Listen("tcp", self.ClientAddr)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", self.ReplAddr)
	if err != nil {
		t.Fatal(err)
	}
	a = startNode(t, cfg, cl, rl)
	a.Tick()
	if !a.ownsShard(0) {
		now.Add(int64(2 * time.Minute)) // let the old lease lapse
		a.Tick()
	}
	if !a.ownsShard(0) {
		t.Fatal("restarted primary did not take its shard back")
	}

	for lastSeq(a) <= followerSeq {
		join(a)
	}
	waitSync(t, a, b, 0)
	if have, want := lastSeq(b), lastSeq(a); have != want {
		t.Fatalf("follower at seq %d, primary at %d", have, want)
	}
	if !bytes.Equal(schemeSnapshot(t, a, 0), schemeSnapshot(t, b, 0)) {
		t.Fatal("follower kept the restarted primary's lost suffix: scheme state diverged")
	}
}

// copyDir copies the regular files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o700)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return store.WriteFileDurable(vfs.OS{}, filepath.Join(dst, rel), data)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardSplitAndRebalance: with two shards, losing one shard's lease
// demotes exactly that shard; the cluster serves each group from its
// current owner and cross-redirects between the nodes.
func TestShardSplitAndRebalance(t *testing.T) {
	auth := NewMemAuthority(nil)
	nodes := startCluster(t, []string{"a", "b"}, auth, 2, 2)
	a, b := nodes[0], nodes[1]

	a.Tick() // a wins both shards
	if !a.ownsShard(0) || !a.ownsShard(1) {
		t.Fatal("a should own both shards")
	}

	// Shard 1 (group 1) fails over to b; shard 0 stays with a.
	auth.Expire(1)
	b.Tick()
	a.Tick()
	if !a.ownsShard(0) || a.ownsShard(1) {
		t.Fatal("a should now own only shard 0")
	}
	if b.ownsShard(0) || !b.ownsShard(1) {
		t.Fatal("b should now own only shard 1")
	}

	// Each node serves its shard's group and redirects for the other's.
	g0 := joinGroup(t, a, b.ClientAddr().String(), 0)
	g1 := joinGroup(t, b, a.ClientAddr().String(), 1)
	if g0.Group() != 0 || g1.Group() != 1 {
		t.Fatalf("joined groups %d and %d", g0.Group(), g1.Group())
	}
	if a.Registry().Get(0).Size() != 1 {
		t.Fatal("group 0 member did not land on a")
	}
	if b.Registry().Get(1).Size() != 1 {
		t.Fatal("group 1 member did not land on b")
	}

	// WhereIs reflects the split map from either node.
	owner, _, err := server.WhereIs(a.ClientAddr().String(), 1, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if owner != b.ClientAddr().String() {
		t.Fatalf("whereis(1) = %s, want %s", owner, b.ClientAddr().String())
	}
}

// TestMemAuthorityEpochs: renewals keep the epoch, ownership changes and
// continuity losses bump it, and contention is rejected.
func TestMemAuthorityEpochs(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	auth := NewMemAuthority(clock)

	l1, err := auth.Acquire(3, "a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Epoch != 1 || l1.Owner != "a" {
		t.Fatalf("first acquire: %+v", l1)
	}
	if _, err := auth.Acquire(3, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contended acquire: %v", err)
	}
	l2, err := auth.Acquire(3, "a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Epoch != 1 {
		t.Fatalf("renewal bumped epoch to %d", l2.Epoch)
	}

	now = now.Add(2 * time.Minute) // lease lapses
	if _, ok := auth.Peek(3); ok {
		t.Fatal("expired lease still peeked")
	}
	l3, err := auth.Acquire(3, "a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if l3.Epoch != 2 {
		t.Fatalf("re-acquire after expiry: epoch %d, want 2 (continuity lost)", l3.Epoch)
	}
	l4, err := auth.Acquire(4, "b", time.Minute)
	if err != nil || l4.Epoch != 1 {
		t.Fatalf("independent shard: %+v, %v", l4, err)
	}
}

// TestDirAuthority exercises the file-backed authority shared by separate
// processes: contention, renewal, expiry epochs, and persistence across
// instances.
func TestDirAuthority(t *testing.T) {
	dir := t.TempDir()
	auth, err := NewDirAuthority(dir)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := auth.Acquire(0, "a", time.Minute)
	if err != nil || l1.Epoch != 1 {
		t.Fatalf("first acquire: %+v, %v", l1, err)
	}
	if _, err := auth.Acquire(0, "b", time.Minute); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contended acquire: %v", err)
	}
	if l, ok := auth.Peek(0); !ok || l.Owner != "a" || l.Epoch != 1 {
		t.Fatalf("peek: %+v, %v", l, ok)
	}

	// A second instance (another process) sees the same lease.
	auth2, err := NewDirAuthority(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := auth2.Peek(0); !ok || l.Owner != "a" {
		t.Fatalf("second instance peek: %+v, %v", l, ok)
	}

	// Expired lease: the next owner gets a fresh epoch.
	short, err := auth.Acquire(1, "a", time.Millisecond)
	if err != nil || short.Epoch != 1 {
		t.Fatalf("short acquire: %+v, %v", short, err)
	}
	time.Sleep(5 * time.Millisecond)
	if _, ok := auth2.Peek(1); ok {
		t.Fatal("expired lease still peeked")
	}
	stolen, err := auth2.Acquire(1, "b", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stolen.Owner != "b" || stolen.Epoch != 2 {
		t.Fatalf("takeover: %+v", stolen)
	}
}

// TestParsePeers validates the membership spec syntax.
func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("b=h2:1=h2:2,a=h1:1=h1:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].ID != "b" {
		t.Fatalf("parsed %+v", peers)
	}
	if peers[0].ClientAddr != "h1:1" || peers[0].ReplAddr != "h1:2" {
		t.Fatalf("peer a: %+v", peers[0])
	}
	for _, bad := range []string{"", "a=only-client", "a=c=r,a=c=r", "=c=r", "a=c=r=", "a=c=r=adv=extra"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// TestParsePeersAdvertise validates the optional fourth (advertise) field
// and the Advertised fallback.
func TestParsePeersAdvertise(t *testing.T) {
	peers, err := ParsePeers("a=h1:1=h1:2=proxy:9,b=h2:1=h2:2")
	if err != nil {
		t.Fatal(err)
	}
	if peers[0].AdvertiseAddr != "proxy:9" || peers[0].Advertised() != "proxy:9" {
		t.Fatalf("peer a: %+v", peers[0])
	}
	if peers[1].AdvertiseAddr != "" || peers[1].Advertised() != "h2:1" {
		t.Fatalf("peer b: %+v", peers[1])
	}
}

// TestUnownedGroupDeferredUnknownRefused: before any node takes a known
// group's lease, a join for it is deferred (the owner is on its way), while
// a join for a group the cluster has never heard of is refused.
func TestUnownedGroupDeferredUnknownRefused(t *testing.T) {
	n := startCluster(t, []string{"a"}, NewMemAuthority(nil), 1, 1)[0]
	addr := n.ClientAddr().String()

	_, err := server.DialGroup(addr, 0, wire.JoinRequest{}, testTimeout)
	var def *server.DeferredError
	if errors.Is(err, server.ErrRejected) || !errors.As(err, &def) {
		t.Fatalf("join for a known group with no owner: %v, want a DeferredError", err)
	}
	if _, err := server.DialGroup(addr, 99, wire.JoinRequest{}, testTimeout); !errors.Is(err, server.ErrRejected) {
		t.Fatalf("join for an unknown group: %v, want ErrRejected", err)
	}
}

// TestShardOf pins the group-to-shard mapping.
func TestShardOf(t *testing.T) {
	if ShardOf(7, 1) != 0 || ShardOf(7, 0) != 0 {
		t.Fatal("degenerate shard counts must map to shard 0")
	}
	if ShardOf(7, 4) != 3 || ShardOf(8, 4) != 0 {
		t.Fatal("modulo mapping broken")
	}
}

// TestPromotionsShareServerMetrics: a node's primaries report into
// Config.ServerMetrics through one view per group, so a group promoted,
// demoted and promoted again counts its rekeys on the aggregate and its
// members once, and a node reports no members for a group it lost.
func TestPromotionsShareServerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	auth := NewMemAuthority(nil)
	var peers []Peer
	var lns [][2]net.Listener
	for _, name := range []string{"a", "b"} {
		cl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		rl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, [2]net.Listener{cl, rl})
		peers = append(peers, Peer{ID: NodeID(name), ClientAddr: cl.Addr().String(), ReplAddr: rl.Addr().String()})
	}
	cfg := Config{Node: "a", Peers: peers, Shards: 1, Groups: 1, StateDir: t.TempDir(), Authority: auth,
		ServerMetrics: server.NewMetrics(reg, nil)}
	a := startNode(t, cfg, lns[0][0], lns[0][1])
	cfg.Node, cfg.StateDir, cfg.ServerMetrics = "b", t.TempDir(), nil
	b := startNode(t, cfg, lns[1][0], lns[1][1])

	rekeys := reg.Counter("groupkey_rekeys_total", "")
	members := reg.Gauge("groupkey_members", "")
	a.Tick()
	b.Tick()
	joinGroup(t, a, a.ClientAddr().String(), 0)
	joinGroup(t, a, a.ClientAddr().String(), 0)
	if rekeys.Value() == 0 || members.Value() != 2 {
		t.Fatalf("after two joins on a: rekeys %d, members %v", rekeys.Value(), members.Value())
	}
	waitSync(t, a, b, 0)

	auth.Expire(0)
	b.Tick()
	a.Tick()
	if a.ownsShard(0) || !b.ownsShard(0) {
		t.Fatal("expected the shard to move to b")
	}
	if members.Value() != 0 {
		t.Fatalf("a demoted: a's groupkey_members = %v, want 0", members.Value())
	}
	waitSync(t, b, a, 0)
	auth.Expire(0)
	a.Tick()
	b.Tick()
	if !a.ownsShard(0) {
		t.Fatal("a did not take its shard back")
	}
	srv := a.Registry().Get(0)
	if members.Value() != float64(srv.Size()) || srv.Size() != 2 {
		t.Fatalf("re-promoted, before any rekey: a's groupkey_members = %v, group size %d", members.Value(), srv.Size())
	}
	before := rekeys.Value()
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	if rekeys.Value() != before+1 || members.Value() != float64(srv.Size()) {
		t.Fatalf("after re-promotion: rekeys %d (want %d), members %v (want %d)",
			rekeys.Value(), before+1, members.Value(), srv.Size())
	}
}
