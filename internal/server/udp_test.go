package server

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/metrics"
	"groupkey/internal/transport"
	"groupkey/internal/wire"
)

// startUDP attaches a datagram plane with deterministic send-side loss
// injection and returns the instrumented metrics bundle.
func startUDP(t *testing.T, srv *Server, dropRate float64, seed int64, cfg UDPConfig) *Metrics {
	t.Helper()
	m := NewMetrics(metrics.NewRegistry(), nil)
	srv.Instrument(m)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	cfg.Drop = func() bool { return rng.Float64() < dropRate } // serialized by sendMu
	srv.ServeUDP(pc, cfg)
	return m
}

// pendingLeaveCount reports how many departures the server has accepted
// but not yet rekeyed over — Leave() is acknowledged asynchronously, so
// tests wait on this before forcing the batch.
func pendingLeaveCount(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.pendingLeaves)
}

// subscribe enables the datagram plane on a client and waits until the
// server has admitted the subscription.
func subscribe(t *testing.T, srv *Server, c *Client, want int) {
	t.Helper()
	if err := c.EnableDatagram(srv.UDPAddr().String(), 30*time.Millisecond, 3); err != nil {
		t.Fatalf("EnableDatagram: %v", err)
	}
	waitFor(t, "udp subscription", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return len(srv.udp.subs) >= want
	})
}

// TestDatagramPlaneDeliversAtFivePercentLoss is the acceptance run: every
// member subscribed to the UDP plane recovers every epoch's keys under 5%
// injected packet loss — through proactive parity, NACK repair, or the
// TCP pull, whichever the loss pattern demands — and the secrecy
// invariants hold: live members agree on the group key, and a departed
// member can neither follow the rekey nor decrypt post-departure traffic.
func TestDatagramPlaneDeliversAtFivePercentLoss(t *testing.T) {
	scheme := newScheme(t, 60)
	srv := startServer(t, scheme)
	m := startUDP(t, srv, 0.05, 61, UDPConfig{KeysPerDgram: 2, BlockSize: 4})

	const n = 6
	clients := make([]*Client, 0, n)
	for i := 0; i < n; i++ {
		c := dial(t, srv, wire.JoinRequest{LossRate: 0.05})
		t.Cleanup(func() { c.Close() })
		clients = append(clients, c)
		subscribe(t, srv, c, len(clients))
	}

	// Churn rounds: every rekey's keys must reach every subscriber despite
	// the injected loss.
	for round := 0; round < 5; round++ {
		extra := dial(t, srv, wire.JoinRequest{LossRate: 0.05})
		epoch := srv.Epoch()
		for _, c := range clients {
			if err := c.WaitEpoch(epoch, testTimeout); err != nil {
				t.Fatalf("round %d: member %d behind: %v", round, c.ID(), err)
			}
		}
		if err := extra.Leave(); err != nil {
			t.Fatalf("round %d: leave: %v", round, err)
		}
		waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
		if _, err := srv.RekeyNow(); err != nil {
			t.Fatalf("round %d: rekey: %v", round, err)
		}
		extra.Close()
	}
	epoch := srv.Epoch()
	for _, c := range clients {
		if err := c.WaitEpoch(epoch, testTimeout); err != nil {
			t.Fatalf("final epoch: member %d behind: %v", c.ID(), err)
		}
	}

	// Key agreement: every member holds the server's current group key.
	gk, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if !c.HasKey(gk) {
			t.Fatalf("member %d does not hold the group key", c.ID())
		}
	}

	// Secrecy: evict a subscribed member; the survivors advance, the
	// leaver must not learn the new key nor decrypt new traffic.
	leaver := clients[0]
	oldKey := gk
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	epoch = srv.Epoch()
	for _, c := range clients[1:] {
		if err := c.WaitEpoch(epoch, testTimeout); err != nil {
			t.Fatalf("post-leave: member %d behind: %v", c.ID(), err)
		}
	}
	newKey, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if newKey.Equal(oldKey) {
		t.Fatal("group key did not change on leave")
	}
	for _, c := range clients[1:] {
		if !c.HasKey(newKey) {
			t.Fatalf("member %d does not hold the post-leave key", c.ID())
		}
	}
	if leaver.HasKey(newKey) {
		t.Fatal("secrecy violation: departed member learned the new group key")
	}
	sealed, err := keycrypt.Seal(newKey, []byte("post-leave secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaver.TryOpen(sealed); err == nil {
		t.Fatal("secrecy violation: departed member decrypted post-leave traffic")
	}

	// The keys actually travelled as datagrams, with proactive parity.
	if m.udpPackets.Value() == 0 {
		t.Fatal("no UDP packets sent — the plane never engaged")
	}
	if m.udpParity.Value() == 0 {
		t.Fatal("no proactive parity sent despite reported loss")
	}
}

// dialRecordingDigests joins a member through a relay that keeps every
// rekey digest the server sends it; the returned func waits for the
// digest of an epoch.
func dialRecordingDigests(t *testing.T, srv *Server) (*Client, func(epoch uint64) wire.RekeyDigest) {
	t.Helper()
	var mu sync.Mutex
	digests := map[uint64]wire.RekeyDigest{}
	pub := srv.signPriv.Public().(ed25519.PublicKey)
	relay := newFrameProxy(t, srv.Addr().String(), func(typ wire.MsgType, payload []byte) {
		if typ != wire.MsgRekeyDigest {
			return
		}
		if dg, err := wire.DecodeRekeyDigest(pub, payload); err == nil {
			mu.Lock()
			digests[dg.Epoch] = dg
			mu.Unlock()
		}
	})
	c := dialVia(t, srv, relay, wire.JoinRequest{})
	return c, func(epoch uint64) wire.RekeyDigest {
		t.Helper()
		var dg wire.RekeyDigest
		waitFor(t, "rekey digest", func() bool {
			mu.Lock()
			defer mu.Unlock()
			var ok bool
			dg, ok = digests[epoch]
			return ok
		})
		return dg
	}
}

// rawSubscriber subscribes c's member ID to the datagram plane from a
// socket the test reads; the client itself has no datagram plane, so it
// pulls each epoch over TCP.
func rawSubscriber(t *testing.T, srv *Server, c *Client) net.PacketConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	t.Cleanup(func() { pc.Close() })
	c.mu.Lock()
	indiv := c.indiv
	c.mu.Unlock()
	sealed, err := keycrypt.Seal(indiv, []byte(wire.HelloBody), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(wire.EncodeMemberDgram(wire.DgramHello, srv.group, 0, c.ID(), sealed), srv.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "udp subscription", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.subs[c.ID()] != nil
	})
	return pc
}

// waitTransmitted waits until the plane has sent every packet of epoch.
func waitTransmitted(t *testing.T, srv *Server, epoch uint64) {
	t.Helper()
	waitFor(t, "epoch transmitted", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.cur != nil && srv.udp.cur.epoch == epoch && srv.udp.cur.isReady()
	})
}

// blockShard names one packet of an epoch.
type blockShard struct {
	block uint16
	shard uint8
}

// TestDatagramBlocksGoToTheirAudience: after a departure, whose rekey
// spans several blocks, each subscriber's socket receives every packet of
// the blocks wire.NeededBlocks picks from its digest, once, and no packet
// of any other block.
func TestDatagramBlocksGoToTheirAudience(t *testing.T) {
	srv := startServer(t, newScheme(t, 70))
	startUDP(t, srv, 0, 71, UDPConfig{KeysPerDgram: 1, BlockSize: 2})
	type subscriber struct {
		digest func(uint64) wire.RekeyDigest
		pc     net.PacketConn
	}
	var subs []subscriber
	for i := 0; i < 4; i++ {
		c, digest := dialRecordingDigests(t, srv)
		subs = append(subs, subscriber{digest, rawSubscriber(t, srv, c)})
	}
	var others []*Client
	for i := 0; i < 4; i++ {
		others = append(others, dial(t, srv, wire.JoinRequest{}))
	}
	if err := others[0].Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	e := srv.Epoch()
	waitTransmitted(t, srv, e)

	partial := false
	for i, sub := range subs {
		dg := sub.digest(e)
		need := wire.NeededBlocks(dg.Indexes, wire.ShardKeys(int(dg.ShardSize)), dg.Blocks)
		want := map[blockShard]int{}
		for _, blk := range need {
			for j := 0; j < int(blk.Shards); j++ {
				want[blockShard{blk.Block, uint8(j)}] = 1
			}
		}
		got := map[blockShard]int{}
		buf := make([]byte, wire.MaxDgramSize)
		for {
			sub.pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, _, err := sub.pc.ReadFrom(buf)
			if err != nil {
				break // every packet was sent before the epoch was published
			}
			if d, err := wire.DecodeDgram(buf[:n]); err == nil && d.Epoch == e {
				got[blockShard{d.Block, d.Shard}]++
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("subscriber %d (indexes %v, %d blocks): received %v, want %v", i, dg.Indexes, len(dg.Blocks), got, want)
		}
		partial = partial || len(need) < len(dg.Blocks)
	}
	if !partial {
		t.Fatal("every subscriber reads every block of the epoch: no audience to check")
	}
}

// dropConn drops the next n packets the server writes to one address.
type dropConn struct {
	net.PacketConn
	mu sync.Mutex
	to string
	n  int
}

func (d *dropConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	d.mu.Lock()
	drop := d.n > 0 && addr.String() == d.to
	if drop {
		d.n--
	}
	d.mu.Unlock()
	if drop {
		return len(p), nil
	}
	return d.PacketConn.WriteTo(p, addr)
}

func (d *dropConn) dropNext(to net.Addr, n int) {
	d.mu.Lock()
	d.to, d.n = to.String(), n
	d.mu.Unlock()
}

// TestDatagramLossEstimateCountsOwnBlocks: a subscriber whose first two
// packets of an epoch are dropped (one parity shard per block, so one loss
// alone raises no NACK) reports LossPermille 2000/(the packets of its own
// blocks), not the share of the epoch's packets: the other subscribers
// read blocks that were never sent to it.
func TestDatagramLossEstimateCountsOwnBlocks(t *testing.T) {
	srv := startServer(t, newScheme(t, 72))
	m := NewMetrics(metrics.NewRegistry(), nil)
	srv.Instrument(m)
	lc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	pc := &dropConn{PacketConn: lc}
	srv.ServeUDP(pc, UDPConfig{KeysPerDgram: 1, BlockSize: 2, MinParity: 1, MaxParity: 1})
	c, digest := dialRecordingDigests(t, srv)
	if err := c.EnableDatagram(srv.UDPAddr().String(), time.Second, 3); err != nil {
		t.Fatalf("EnableDatagram: %v", err)
	}
	waitFor(t, "udp subscription", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.subs[c.ID()] != nil
	})
	var others []*Client
	for i := 0; i < 4; i++ {
		others = append(others, dial(t, srv, wire.JoinRequest{}))
	}
	for _, o := range others[1:] { // the other readers of the epoch
		rawSubscriber(t, srv, o)
	}
	if err := others[0].Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
	srv.udp.mu.Lock()
	pc.dropNext(srv.udp.subs[c.ID()].addr, 2) // its first block's first two shards
	srv.udp.mu.Unlock()
	nacks := m.udpNacks.Value()
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	e := srv.Epoch()
	if err := c.WaitEpoch(e, testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the NACK", func() bool { return m.udpNacks.Value() > nacks })

	dg := digest(e)
	need := wire.NeededBlocks(dg.Indexes, wire.ShardKeys(int(dg.ShardSize)), dg.Blocks)
	if len(need) == len(dg.Blocks) {
		t.Fatalf("the subscriber reads all %d blocks: its own share equals the epoch's", len(dg.Blocks))
	}
	own := 0
	for _, blk := range need {
		own += int(blk.Shards)
	}
	srv.udp.mu.Lock()
	got := int(math.Round(srv.udp.subs[c.ID()].loss.Rate() * 1000))
	srv.udp.mu.Unlock()
	if want := 2000 / own; got != want {
		t.Fatalf("LossPermille %d, want %d: 2 lost of the %d packets of its %d blocks (the epoch has %d blocks)",
			got, want, own, len(need), len(dg.Blocks))
	}
}

// TestDatagramSupersededEpochPulls: a subscriber loses every packet of
// the epoch that admits a second member, and the next epoch, a rotation
// wrapped under that epoch's group key, is announced before its NACK
// timer fires. It must pull rather than assemble the rotation, which it
// could not open: before, it reported the epoch without its group key.
func TestDatagramSupersededEpochPulls(t *testing.T) {
	scheme := newScheme(t, 74)
	srv := startServer(t, scheme)
	m := NewMetrics(metrics.NewRegistry(), nil)
	srv.Instrument(m)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	var blackhole atomic.Bool
	srv.ServeUDP(pc, UDPConfig{KeysPerDgram: 2, BlockSize: 4, Drop: blackhole.Load})
	c := dial(t, srv, wire.JoinRequest{})
	if err := c.EnableDatagram(srv.UDPAddr().String(), time.Minute, 3); err != nil {
		t.Fatalf("EnableDatagram: %v", err)
	}
	waitFor(t, "udp subscription", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.subs[c.ID()] != nil
	})
	blackhole.Store(true)
	dial(t, srv, wire.JoinRequest{})
	waitTransmitted(t, srv, srv.Epoch())
	blackhole.Store(false)
	if _, err := srv.RotateNow(); err != nil {
		t.Fatal(err)
	}
	e := srv.Epoch()
	if err := c.WaitEpoch(e, testTimeout); err != nil {
		t.Fatal(err)
	}
	gk, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasKey(gk) {
		t.Fatalf("client reports epoch %d of %d without its group key", c.Epoch(), e)
	}
	if m.repairPulls.Value() == 0 {
		t.Fatal("the client reached the epoch without pulling it")
	}
}

// TestGeometryParityFollowsAudience: two subscribers read eight items
// each, at 0 % and at 20 % loss. The plane packs their items alone, so
// the second one's items 20–27 sit at positions 8–15, and each block gets
// parity from its own reader: the clamp's floor for the clean one,
// k·(E[M]−1) = 8·0.25 = 2 for the lossy one. Sparse readers share one
// block, whose parity both losses size.
func TestGeometryParityFollowsAudience(t *testing.T) {
	geo := UDPConfig{KeysPerDgram: 1, BlockSize: 8}.fecGeometry()
	plan := geo.Plan([][]uint32{{0, 1, 2, 3, 4, 5, 6, 7}, {20, 21, 22, 23, 24, 25, 26, 27}}, []float64{0, 0.2})
	if plan.KPD != 1 || len(plan.Blocks) != 2 {
		t.Fatalf("geometry: %d keys per shard, %d blocks; want 1 and 2", plan.KPD, len(plan.Blocks))
	}
	if want := "[[0 1 2 3 4 5 6 7] [8 9 10 11 12 13 14 15]]"; fmt.Sprint(plan.Positions) != want {
		t.Fatalf("positions %v, want %v", plan.Positions, want)
	}
	if want := [][]int{{0}, {1}}; fmt.Sprint(plan.Audience) != fmt.Sprint(want) {
		t.Fatalf("audiences %v, want %v", plan.Audience, want)
	}
	for b, want := range []int{geo.MinParity, 2} {
		if got := int(plan.Blocks[b].Shards - plan.Blocks[b].K); got != want {
			t.Errorf("block %d: %d parity shards, want %d", b, got, want)
		}
	}

	// Items 8–15 and 17–22, which nobody reads, get no position: the five
	// items read fill one block of five shards, read by both subscribers.
	plan = geo.Plan([][]uint32{{0, 3, 7}, {16, 23}}, []float64{0, 0.2})
	if fmt.Sprint(plan.Items) != "[0 3 7 16 23]" || fmt.Sprint(plan.Positions) != "[[0 1 2] [3 4]]" {
		t.Fatalf("items %v at positions %v, want [0 3 7 16 23] at [[0 1 2] [3 4]]", plan.Items, plan.Positions)
	}
	if want := [][]int{{0, 1}}; fmt.Sprint(plan.Audience) != fmt.Sprint(want) {
		t.Fatalf("audiences %v, want %v", plan.Audience, want)
	}
	if got := int(plan.Blocks[0].Shards - plan.Blocks[0].K); got != 2 {
		t.Errorf("shared block: %d parity shards, want ⌈5·0.25⌉ = 2", got)
	}
}

// TestDatagramPacksOnlySubscribedItems: three subscribers beside five TCP
// probes. After a departure the plane packs only the items its
// subscribers read, so every planned block has an audience, and the
// packets it builds are exactly the distinct packets its subscribers
// receive.
func TestDatagramPacksOnlySubscribedItems(t *testing.T) {
	srv := startServer(t, newScheme(t, 76))
	startUDP(t, srv, 0, 77, UDPConfig{KeysPerDgram: 1, BlockSize: 2})
	first, digest := dialRecordingDigests(t, srv)
	members := []*Client{dial(t, srv, wire.JoinRequest{}), first}
	for i := 0; i < 7; i++ {
		members = append(members, dial(t, srv, wire.JoinRequest{}))
	}
	var socks []net.PacketConn
	for _, c := range members[1:4] {
		socks = append(socks, rawSubscriber(t, srv, c))
	}
	if err := members[0].Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	e := srv.Epoch()
	waitTransmitted(t, srv, e)
	srv.udp.mu.Lock()
	ep := srv.udp.cur
	srv.udp.mu.Unlock()

	built := map[blockShard]bool{}
	for b, blk := range ep.plan.Blocks {
		if len(ep.plan.Audience[b]) == 0 {
			t.Errorf("block %d has no audience", b)
		}
		for j := 0; j < int(blk.Shards); j++ {
			built[blockShard{blk.Block, uint8(j)}] = true
		}
		if len(ep.pkts[b]) != int(blk.Shards) {
			t.Errorf("block %d: %d packets built, plan says %d", b, len(ep.pkts[b]), blk.Shards)
		}
	}
	sent := map[blockShard]bool{}
	buf := make([]byte, wire.MaxDgramSize)
	for _, pc := range socks {
		for {
			pc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				break // every packet was sent before the epoch was published
			}
			if d, err := wire.DecodeDgram(buf[:n]); err == nil && d.Epoch == e {
				sent[blockShard{d.Block, d.Shard}] = true
			}
		}
	}
	if !maps.Equal(built, sent) {
		t.Fatalf("built %d packets %v, subscribers received %d distinct %v", len(built), built, len(sent), sent)
	}
	if dg := digest(e); len(ep.plan.Items) >= int(dg.NLeaves) {
		t.Fatalf("packed %d of the epoch's %d items: the TCP probes read none of their own", len(ep.plan.Items), dg.NLeaves)
	}
}

// TestDatagramParityDecaysAfterNack: one NACK reporting 40 % loss raises
// the parity of the blocks its sender reads in the next epoch, and each
// epoch planned without its NACK halves the estimate, so within three
// clean epochs those blocks are back at MinParity.
func TestDatagramParityDecaysAfterNack(t *testing.T) {
	srv := startServer(t, newScheme(t, 78))
	startUDP(t, srv, 0, 79, UDPConfig{KeysPerDgram: 1, BlockSize: 8})
	var members []*Client
	for i := 0; i < 12; i++ {
		members = append(members, dial(t, srv, wire.JoinRequest{}))
	}
	subs, leavers := members[:6], members[6:]
	a := subs[0]
	pc := rawSubscriber(t, srv, a)
	for _, c := range subs[1:] {
		rawSubscriber(t, srv, c)
	}
	// depart rekeys over one leaver and returns the parity of every block
	// of at least two source shards that a reads.
	depart := func(leaver *Client) []int {
		t.Helper()
		if err := leaver.Leave(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
		if _, err := srv.RekeyNow(); err != nil {
			t.Fatal(err)
		}
		waitTransmitted(t, srv, srv.Epoch())
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		plan := srv.udp.cur.plan
		r := srv.udp.cur.recv[a.ID()]
		var parity []int
		for b, audience := range plan.Audience {
			if blk := plan.Blocks[b]; blk.K >= 2 && slices.Contains(audience, r) {
				parity = append(parity, int(blk.Shards-blk.K))
			}
		}
		return parity
	}

	depart(leavers[0])
	a.mu.Lock()
	indiv := a.indiv
	a.mu.Unlock()
	e := srv.Epoch()
	sealed, err := keycrypt.Seal(indiv, wire.NackBody{Epoch: e, LossPermille: 400}.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.WriteTo(wire.EncodeMemberDgram(wire.DgramNack, srv.group, e, a.ID(), sealed), srv.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the NACK", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.subs[a.ID()].loss.Rate() == 0.4
	})
	raised := depart(leavers[1])
	if len(raised) == 0 {
		t.Fatal("the subscriber reads no block of two or more source shards: no parity to compare")
	}
	for _, p := range raised {
		if p <= transport.DefaultMinParity {
			t.Fatalf("after a 40 %% NACK its blocks carry parity %v, want above %d", raised, transport.DefaultMinParity)
		}
	}
	var parity []int
	for _, l := range leavers[2:5] {
		parity = depart(l)
	}
	for _, p := range parity {
		if p != transport.DefaultMinParity {
			t.Fatalf("three clean epochs later its blocks carry parity %v, want %d each", parity, transport.DefaultMinParity)
		}
	}
}

// TestDatagramPlaneRepairsHeavyLoss cranks injected loss far past what
// proactive parity covers: delivery must still complete every epoch via
// NACK repair rounds or the authoritative TCP pull.
func TestDatagramPlaneRepairsHeavyLoss(t *testing.T) {
	scheme := newScheme(t, 62)
	srv := startServer(t, scheme)
	m := startUDP(t, srv, 0.4, 63, UDPConfig{KeysPerDgram: 2, BlockSize: 4, MaxParity: 2})

	c := dial(t, srv, wire.JoinRequest{LossRate: 0.4})
	t.Cleanup(func() { c.Close() })
	subscribe(t, srv, c, 1)
	other := dial(t, srv, wire.JoinRequest{LossRate: 0.4})
	t.Cleanup(func() { other.Close() })
	subscribe(t, srv, other, 2)

	for round := 0; round < 4; round++ {
		if _, err := srv.RotateNow(); err != nil {
			t.Fatalf("round %d: rotate: %v", round, err)
		}
		epoch := srv.Epoch()
		if err := c.WaitEpoch(epoch, testTimeout); err != nil {
			t.Fatalf("round %d: member behind at 40%% loss: %v", round, err)
		}
		if err := other.WaitEpoch(epoch, testTimeout); err != nil {
			t.Fatalf("round %d: second member behind: %v", round, err)
		}
	}
	gk, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasKey(gk) || !other.HasKey(gk) {
		t.Fatal("members lost key agreement under heavy loss")
	}
	if m.udpNacks.Value() == 0 && m.repairPulls.Value() == 0 {
		t.Fatal("heavy loss triggered neither NACK repair nor TCP pulls")
	}
}

// TestShardDgramsFitMTU encodes whole epochs at the default geometry with
// every block at MaxParity 8, from one item to the largest epoch the seal
// accepts: every packet fits one MTU, and the epoch's packet count and
// block count fit their fields.
func TestShardDgramsFitMTU(t *testing.T) {
	geo := UDPConfig{MaxParity: 8}.fecGeometry()
	losses := []float64{0.9} // asks for more parity than MaxParity allows
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	item := make([]byte, wire.RekeyItemSize)
	for _, n := range []int{1, 392, 6375, wire.MaxSparseIndexes} {
		all := make([]uint32, n) // one subscriber reads every block
		for i := range all {
			all[i] = uint32(i)
		}
		plan := geo.Plan([][]uint32{all}, losses)
		kpd, blocks := plan.KPD, plan.Blocks
		leaves := 0
		for _, blk := range blocks {
			if want := geo.MaxParity; int(blk.Shards)-int(blk.K) != want {
				t.Fatalf("n=%d: block %d has %d parity, want %d", n, blk.Block, int(blk.Shards)-int(blk.K), want)
			}
			leaves += int(blk.Shards)
		}
		if len(blocks) > math.MaxUint16+1 || leaves > math.MaxUint32 {
			t.Fatalf("n=%d: %d blocks, %d packets overflow their fields", n, len(blocks), leaves)
		}
		pkts, err := encodeEpoch(priv, 3, 5, plan, func(int) []byte { return item })
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		count, largest := 0, 0
		for bi, block := range pkts {
			for j, pkt := range block {
				largest = max(largest, len(pkt))
				d, err := wire.DecodeDgram(pkt)
				if err != nil {
					t.Fatalf("n=%d: block %d shard %d: %v", n, bi, j, err)
				}
				if d.Leaf != uint32(count) || d.Leaves != uint32(leaves) {
					t.Fatalf("n=%d: packet %d claims leaf %d of %d, want %d of %d", n, count, d.Leaf, d.Leaves, count, leaves)
				}
				count++
			}
		}
		if count != leaves {
			t.Fatalf("n=%d: %d packets, geometry says %d", n, count, leaves)
		}
		if largest > wire.DgramMTU {
			t.Fatalf("n=%d: %d keys per packet, %d packets: largest %d B exceeds the %d B MTU payload",
				n, kpd, leaves, largest, wire.DgramMTU)
		}
		t.Logf("n=%d: %d keys per packet, %d packets in %d blocks, largest %d B", n, kpd, leaves, len(blocks), largest)
	}
}

// TestDatagramForgeriesRejected sends three forgeries to a subscribed
// client through the server's own socket — the only source its connected
// socket accepts — while the client is assembling an epoch whose genuine
// packets were all dropped: a tampered body under the real root, a forged
// root and signature after the client cached the real root, and a previous
// epoch's packet relabelled as the current epoch. Each is counted as a bad
// signature; the client then converges on the genuine packets and keeps
// up at 5% loss.
func TestDatagramForgeriesRejected(t *testing.T) {
	scheme := newScheme(t, 64)
	srv := startServer(t, scheme)
	var blackhole atomic.Bool
	rng := rand.New(rand.NewSource(65))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenPacket: %v", err)
	}
	srv.ServeUDP(pc, UDPConfig{KeysPerDgram: 1, BlockSize: 4, Drop: func() bool {
		return blackhole.Load() || rng.Float64() < 0.05 // serialized by sendMu
	}})
	c := dial(t, srv, wire.JoinRequest{LossRate: 0.05})
	if err := c.EnableDatagram(srv.UDPAddr().String(), time.Second, 3); err != nil {
		t.Fatalf("EnableDatagram: %v", err)
	}
	waitFor(t, "udp subscription", func() bool {
		srv.udp.mu.Lock()
		defer srv.udp.mu.Unlock()
		return srv.udp.subs[c.ID()] != nil
	})
	var others []*Client
	for i := 0; i < 12; i++ {
		others = append(others, dial(t, srv, wire.JoinRequest{LossRate: 0.05}))
	}
	transmitted := func(epoch uint64) [][][]byte {
		var ep *udpEpoch
		waitFor(t, "epoch transmitted", func() bool {
			srv.udp.mu.Lock()
			ep = srv.udp.cur
			srv.udp.mu.Unlock()
			return ep != nil && ep.epoch == epoch && ep.isReady()
		})
		return ep.pkts
	}
	rotate := func() uint64 {
		if _, err := srv.RotateNow(); err != nil {
			t.Fatalf("rotate: %v", err)
		}
		return srv.Epoch()
	}

	e := rotate()
	prev := append([]byte(nil), transmitted(e)[0][0]...)
	if err := c.WaitEpoch(e, testTimeout); err != nil {
		t.Fatal(err)
	}

	// The departure of a member beside the client, whose parent has more
	// than two children among 13 members, rekeys the parent key and the
	// root: two items, each its own source shard, so one packet does not
	// complete the client's block. Every packet the
	// plane sends for it, NACK resends included, is dropped until the
	// forgeries are in.
	parent := scheme.PathIDs(c.ID(), nil)[1]
	sibling := slices.IndexFunc(others, func(o *Client) bool { return scheme.PathIDs(o.ID(), nil)[1] == parent })
	if sibling < 0 {
		t.Fatalf("no member shares the client's parent key %v", parent)
	}
	blackhole.Store(true)
	if err := others[sibling].Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "departure registered", func() bool { return pendingLeaveCount(srv) > 0 })
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	e = srv.Epoch()
	var genuine [][]byte
	var shards []wire.EpochShard
	for _, block := range transmitted(e) {
		for _, pkt := range block {
			d, err := wire.DecodeDgram(pkt)
			if err != nil {
				t.Fatal(err)
			}
			genuine = append(genuine, pkt)
			shards = append(shards, wire.EpochShard{Type: d.Type, Block: d.Block, Shard: d.Shard, K: d.K,
				Payload: append([]byte(nil), d.Payload...)})
		}
	}
	if shards[0].K < 2 {
		t.Fatalf("epoch %d's first block has k=%d; one packet must not complete it", e, shards[0].K)
	}
	sig := genuine[0][len(genuine[0])-ed25519.SignatureSize:]
	for i, pkt := range genuine {
		if !bytes.Equal(pkt[len(pkt)-ed25519.SignatureSize:], sig) {
			t.Fatalf("packet %d of epoch %d carries another signature", i, e)
		}
	}

	srv.udp.mu.Lock()
	addr := srv.udp.subs[c.ID()].addr
	srv.udp.mu.Unlock()
	send := func(pkt []byte) {
		if _, err := pc.WriteTo(pkt, addr); err != nil {
			t.Fatal(err)
		}
	}
	inject := func(what string, pkt []byte, bad int) {
		t.Helper()
		if c.Epoch() >= e {
			t.Fatalf("client applied epoch %d before the %s arrived", e, what)
		}
		send(pkt)
		waitFor(t, what+" counted", func() bool { return c.BadSignatures() >= bad })
	}

	tampered := append([]byte(nil), genuine[0]...)
	tampered[bytes.Index(tampered, shards[0].Payload)+len(shards[0].Payload)-1] ^= 1 // last payload byte
	inject("tampered body", tampered, 1)

	send(genuine[1]) // the client verifies and caches the epoch's root
	waitFor(t, "genuine packet kept", func() bool {
		c.dgram.mu.Lock()
		defer c.dgram.mu.Unlock()
		return len(c.dgram.epochs[e]) > 0
	})
	shards[0].Payload[len(shards[0].Payload)-1] ^= 1
	forger := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	inject("forged root", wire.EncodeEpochDgrams(forger, srv.group, e, shards)[0], 2)

	binary.BigEndian.PutUint64(prev[8:16], e)
	inject("relabelled packet", prev, 3)

	// The black hole held NACK repair back; now the genuine packets
	// arrive, and later epochs see only the 5% loss.
	blackhole.Store(false)
	for _, pkt := range genuine {
		send(pkt)
	}
	if err := c.WaitEpoch(e, testTimeout); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := c.WaitEpoch(rotate(), testTimeout); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	gk, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasKey(gk) {
		t.Fatal("client does not hold the group key")
	}
	if n := c.BadSignatures(); n != 3 {
		t.Fatalf("%d bad signatures counted, want the 3 forgeries", n)
	}
}

// TestPullReplyKeepsIndividualKey: a datagram subscriber that loses every
// packet of an epoch pulls it over TCP mid-session. The reply, its key
// path, starts at the individual key the member keeps for life: the
// member converges on the group key and that key is unchanged.
func TestPullReplyKeepsIndividualKey(t *testing.T) {
	scheme := newScheme(t, 64)
	srv := startServer(t, scheme)
	m := startUDP(t, srv, 1, 65, UDPConfig{KeysPerDgram: 2, BlockSize: 4})
	c := dial(t, srv, wire.JoinRequest{})
	dial(t, srv, wire.JoinRequest{})
	subscribe(t, srv, c, 1)
	c.mu.Lock()
	indiv := c.indiv
	c.mu.Unlock()

	if _, err := srv.RotateNow(); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitEpoch(srv.Epoch(), testTimeout); err != nil {
		t.Fatal(err)
	}
	if m.repairPulls.Value() == 0 {
		t.Fatal("the member reached the epoch without pulling it")
	}
	gk, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	kept := c.indiv.Equal(indiv)
	c.mu.Unlock()
	if !kept || !c.HasKey(gk) {
		t.Fatalf("after the pull reply: individual key kept=%v, holds the group key=%v", kept, c.HasKey(gk))
	}
}

// TestPullAfterMissedMigrationConverges: a TT datagram subscriber loses
// every packet of the epoch that migrates it from the S to the L
// partition, and of the rotation after it, and pulls. It keeps its
// individual key for life, so the reply, its new key path, is sealed under
// a key it holds: within one round trip of the pull it holds its whole L
// path and the group key.
func TestPullAfterMissedMigrationConverges(t *testing.T) {
	scheme, err := core.NewTwoPartition(core.TT, 2, core.WithRand(keycrypt.NewDeterministicReader(66)))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, scheme)
	c := dial(t, srv, wire.JoinRequest{})
	dial(t, srv, wire.JoinRequest{})
	m := startUDP(t, srv, 1, 67, UDPConfig{KeysPerDgram: 2, BlockSize: 4})
	subscribe(t, srv, c, 1)
	c.mu.Lock()
	indiv := c.indiv
	c.mu.Unlock()

	for i := 0; ; i++ {
		if _, err := srv.RekeyNow(); err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		migrated := scheme.LPartitionSize() > 0
		srv.mu.Unlock()
		if migrated {
			break
		}
		if i == 8 {
			t.Fatal("the member never migrated out of the S partition")
		}
		if err := c.WaitEpoch(srv.Epoch(), testTimeout); err != nil {
			t.Fatalf("before the migration: %v", err)
		}
	}
	pulls := m.repairPulls.Value()
	if _, err := srv.RotateNow(); err != nil {
		t.Fatal(err)
	}
	epoch := srv.Epoch()
	if err := c.WaitEpoch(epoch, testTimeout); err != nil {
		t.Fatalf("after the missed migration: %v (session error %v)", err, c.Err())
	}
	if m.repairPulls.Value() == pulls {
		t.Fatal("the member reached the epoch without pulling it")
	}
	srv.mu.Lock()
	keys, err := scheme.MemberKeys(c.ID())
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	kept := c.indiv.Equal(indiv) && keys[0].Equal(indiv)
	c.mu.Unlock()
	if !kept {
		t.Fatal("the migration changed the member's individual key")
	}
	for _, k := range keys {
		if !c.HasKey(k) {
			t.Fatalf("after the pull reply the member lacks %v of its path (epoch %d of %d)", k.ID, c.Epoch(), epoch)
		}
	}
}

// TestPullsCoalescePerEpoch: a member's pulls are answered once per epoch,
// whatever their number, and again once the epoch moves on.
func TestPullsCoalescePerEpoch(t *testing.T) {
	srv := startServer(t, newScheme(t, 68))
	m := NewMetrics(metrics.NewRegistry(), nil)
	srv.Instrument(m)
	c := dial(t, srv, wire.JoinRequest{})
	dial(t, srv, wire.JoinRequest{})
	var mu sync.Mutex
	frames := map[uint64]int{}
	c.SetEpochHook(func(e uint64) {
		mu.Lock()
		frames[e]++
		mu.Unlock()
	})
	count := func(e uint64) int {
		mu.Lock()
		defer mu.Unlock()
		return frames[e]
	}

	if _, err := srv.RotateNow(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		// Every frame of this epoch reaches the hook: its broadcast, then
		// the replies.
		epoch := srv.Epoch()
		pulls := m.repairPulls.Value()
		for i := 0; i < 5; i++ {
			c.pull(epoch)
		}
		waitFor(t, "the pulls to be read", func() bool { return m.repairPulls.Value() == pulls+5 })
		// The next epoch's frame is queued behind any reply.
		if _, err := srv.RotateNow(); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEpoch(epoch+1, testTimeout); err != nil {
			t.Fatal(err)
		}
		if got := count(epoch) - 1; got != 1 {
			t.Fatalf("round %d: %d replies to 5 pulls in epoch %d, want 1", round, got, epoch)
		}
	}
}
