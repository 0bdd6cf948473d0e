package server

import (
	"cmp"
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"sync"

	"groupkey/internal/fec"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/transport"
	"groupkey/internal/wire"
)

// Datagram rekey plane (Section 4): the per-epoch key payload leaves the
// server as FEC-coded UDP packets instead of per-member TCP frames. The
// plane runs the proactive-FEC core the simulator runs (transport.FECPlan):
// only the items its subscribers read are packed, ascending, into source
// shards and Reed-Solomon blocks; each block is unicast to its audience,
// the subscribers that read it, with parity sized from their loss
// estimates (§4: a key's replication follows the receivers interested in
// it). The epoch's packets are signed once, as one shard tree
// (wire.EncodeEpochDgrams). Subscribed members' TCP frames shrink to a
// digest naming the geometry and their positions in the packing; a member
// NACKs a block it cannot read over UDP and gets deficit+1 of its packets
// from a rotating cursor, and as a last resort pulls its key path over
// TCP (MsgRekeyPull). A NACK sets the member's loss estimate, and each
// epoch planned without its NACK halves it.
//
// The plane is deliberately subscription-driven: a member opts in by
// sending a DgramHello sealed under its leaf key, which simultaneously
// authenticates the subscription and pins the source address to send to.
// Everything here must stay correct when the plane is absent — every
// method on udpPlane is nil-receiver safe, and the TCP paths remain the
// authority for repair.

// UDPConfig tunes the datagram plane. The zero value of any field selects
// its default.
type UDPConfig struct {
	// KeysPerDgram caps how many (position, item) entries ride one source
	// shard (default 12). Each epoch uses the most, up to the cap, whose
	// packets fit wire.DgramMTU with their authentication path, which
	// grows with log2 of the epoch's packet count: 12 up to 128 packets.
	KeysPerDgram int
	// BlockSize is the number of source shards per FEC block (default 8).
	BlockSize int
	// MinParity/MaxParity clamp each block's proactive parity count, which
	// follows the losses of the block's audience (defaults
	// transport.DefaultMinParity and DefaultMaxParity).
	MinParity int
	MaxParity int
	// Drop, when set, is consulted before every outbound packet; true
	// drops it. Send-side loss injection for tests and the CI smoke —
	// calls are serialized by the plane.
	Drop func() bool
}

// fecGeometry returns the core's geometry for the configuration, defaults
// filled in: packets must fit wire.DgramMTU with their authentication
// path.
func (c UDPConfig) fecGeometry() transport.FECGeometry {
	g := transport.FECGeometry{
		KeysPerShard: cmp.Or(max(c.KeysPerDgram, 0), 12),
		BlockSize:    cmp.Or(max(c.BlockSize, 0), 8),
		MinParity:    cmp.Or(max(c.MinParity, 0), transport.DefaultMinParity),
		MaxParity:    cmp.Or(max(c.MaxParity, 0), transport.DefaultMaxParity),
		Fits: func(kpd, packets int) bool {
			return wire.ShardDgramSize(wire.ShardSize(kpd), packets) <= wire.DgramMTU
		},
	}
	g.MaxParity = max(g.MaxParity, g.MinParity)
	return g
}

// udpSub is one subscribed member: where to send, and its loss estimate.
type udpSub struct {
	addr net.Addr
	loss transport.LossEstimate
}

// udpEpoch is one epoch's plan plus the signed packets, kept until the
// next epoch replaces it so NACKs can be answered by resending.
type udpEpoch struct {
	epoch uint64
	plan  *transport.FECPlan
	// recv maps each member the plan serves to its receiver index.
	recv map[keytree.MemberID]int
	// ready is closed once pkts is fully populated by the transmit
	// goroutine; NACKs arriving earlier are ignored (the member re-NACKs).
	ready chan struct{}
	// pkts[block][shard] is the complete signed packet, data then parity.
	pkts [][][]byte
}

func (ep *udpEpoch) isReady() bool {
	select {
	case <-ep.ready:
		return true
	default:
		return false
	}
}

// udpPlane owns the server's datagram socket. Lock order: s.mu may be
// held while taking u.mu (planEpoch), so nothing under u.mu may take s.mu.
type udpPlane struct {
	srv  *Server
	pc   net.PacketConn
	geo  transport.FECGeometry
	drop func() bool

	// sendMu serializes socket writes and Drop consultations (transmit
	// goroutines and the NACK repair path both send).
	sendMu sync.Mutex

	mu     sync.Mutex
	subs   map[keytree.MemberID]*udpSub
	cur    *udpEpoch
	closed bool
}

// ServeUDP attaches a datagram rekey plane listening on pc. Call before
// members subscribe; Close tears it down with the rest of the server.
func (s *Server) ServeUDP(pc net.PacketConn, cfg UDPConfig) {
	u := &udpPlane{
		srv:  s,
		pc:   pc,
		geo:  cfg.fecGeometry(),
		drop: cfg.Drop,
		subs: make(map[keytree.MemberID]*udpSub),
	}
	s.mu.Lock()
	s.udp = u
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		u.readLoop()
	}()
}

// UDPAddr returns the datagram plane's bound address (nil when none).
func (s *Server) UDPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.udp == nil {
		return nil
	}
	return s.udp.pc.LocalAddr()
}

// close shuts the socket down; the read loop (registered on the server's
// WaitGroup) exits on the resulting read error. Callers hold s.mu.
func (u *udpPlane) close() {
	if u == nil {
		return
	}
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	u.pc.Close()
}

// send writes one packet, honoring the loss-injection hook: an injected
// drop is skipped silently, and callers count it as sent, the cost a real
// network dropping it would have had.
func (u *udpPlane) send(pkt []byte, addr net.Addr) {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	if u.drop != nil && u.drop() {
		return
	}
	_, _ = u.pc.WriteTo(pkt, addr)
}

// planEpoch plans one epoch's FEC blocks over the items its connected
// subscribers read and kicks off the asynchronous transmit. ids are the
// epoch's audience, ascending (eb.index.At(pos) holds ids[pos]'s items).
// It returns the members whose keys travel over UDP this epoch, each with
// its receiver index in the plan (nil when the plane is absent, idle, or
// the epoch is empty); those members' TCP frames become digests. Callers
// hold s.mu.
func (u *udpPlane) planEpoch(s *Server, eb *epochBuffer, ids []keytree.MemberID) map[keytree.MemberID]int {
	if u == nil || eb.nItems == 0 {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed || len(u.subs) == 0 {
		return nil
	}
	recv := make(map[keytree.MemberID]int, len(u.subs))
	var needs [][]uint32
	var losses []float64
	var addrs []net.Addr
	for pos, id := range ids {
		if sub := u.subs[id]; sub != nil {
			recv[id] = len(needs)
			needs = append(needs, eb.index.At(pos))
			losses = append(losses, sub.loss.Plan())
			addrs = append(addrs, sub.addr)
		}
	}
	if len(recv) == 0 {
		return nil
	}

	ep := &udpEpoch{epoch: eb.epoch, plan: u.geo.Plan(needs, losses), recv: recv, ready: make(chan struct{})}
	u.cur = ep
	eb.retain() // transmit goroutine's reference
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer eb.release()
		u.transmit(ep, eb, addrs)
	}()
	return recv
}

// digestFor encodes the MsgRekeyDigest payload for one subscribed member:
// the epoch's signed root, the member's positions in the plan's packing,
// and the block geometry its NACKs will reference. Callers hold s.mu
// right after a planEpoch that returned the member, so u.cur matches eb.
func (u *udpPlane) digestFor(eb *epochBuffer, id keytree.MemberID) []byte {
	if u == nil {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.cur == nil || u.cur.epoch != eb.epoch {
		return nil
	}
	plan := u.cur.plan
	d := wire.RekeyDigest{
		Epoch:     eb.epoch,
		NLeaves:   uint32(eb.nItems),
		Root:      eb.root,
		Sig:       eb.rootSig,
		ShardSize: uint16(wire.ShardSize(plan.KPD)),
		Indexes:   plan.Positions[u.cur.recv[id]],
		Blocks:    plan.Blocks,
	}
	return d.Encode()
}

// transmit builds and signs one epoch's packets, unicasts each block's
// packets to that block's audience (receiver r at addrs[r]), then
// publishes them for NACK repair. Runs without locks; eb is immutable and
// retained.
func (u *udpPlane) transmit(ep *udpEpoch, eb *epochBuffer, addrs []net.Addr) {
	pkts, err := encodeEpoch(u.srv.signPriv, u.srv.group, ep.epoch, ep.plan, eb.item)
	if err != nil { // a geometry bug: send nothing NACK repair could index past
		close(ep.ready)
		return
	}
	ep.pkts = pkts
	packets, parityPkts := 0, 0
	for bi, pkts := range ep.pkts {
		audience := ep.plan.Audience[bi]
		for _, pkt := range pkts {
			for _, r := range audience {
				u.send(pkt, addrs[r])
			}
		}
		packets += len(pkts) * len(audience)
		parityPkts += (len(pkts) - int(ep.plan.Blocks[bi].K)) * len(audience)
	}
	close(ep.ready)
	u.srv.metrics.noteUDP(packets, parityPkts, 0, 0)
}

// encodeEpoch builds every source and parity shard of the plan — source
// shard j carries positions [j·KPD, (j+1)·KPD), each with its item — then
// encodes them as one signed shard tree. It returns the packets per block,
// data shards then parity, blk.Shards of them for each block.
func encodeEpoch(priv ed25519.PrivateKey, g wire.GroupID, epoch uint64, plan *transport.FECPlan, item func(int) []byte) ([][][]byte, error) {
	var shards []wire.EpochShard
	shardSize := wire.ShardSize(plan.KPD)
	gs := 0 // global source-shard index
	for _, blk := range plan.Blocks {
		k := int(blk.K)
		slab := make([]byte, k*shardSize)
		data := make([][]byte, k)
		for j := range data {
			data[j] = slab[j*shardSize : (j+1)*shardSize : (j+1)*shardSize]
			lo := (gs + j) * plan.KPD
			hi := min(lo+plan.KPD, len(plan.Items))
			binary.BigEndian.PutUint16(data[j], uint16(hi-lo))
			shard := data[j][:2]
			for pos := lo; pos < hi; pos++ {
				shard = wire.AppendShardEntry(shard, uint32(pos), item(int(plan.Items[pos])))
			}
			shards = append(shards, wire.EpochShard{Type: wire.DgramKeys, Block: blk.Block, Shard: uint8(j), K: blk.K, Payload: shard})
		}
		gs += k

		coder, err := fec.NewCoder(k, int(blk.Shards)-k)
		if err != nil {
			return nil, err
		}
		par, err := coder.Encode(data)
		if err != nil {
			return nil, err
		}
		for j, p := range par {
			shards = append(shards, wire.EpochShard{Type: wire.DgramParity, Block: blk.Block, Shard: uint8(k + j), K: blk.K, Payload: p})
		}
	}
	flat := wire.EncodeEpochDgrams(priv, g, epoch, shards)
	pkts := make([][][]byte, len(plan.Blocks))
	for bi, blk := range plan.Blocks {
		n := int(blk.Shards)
		pkts[bi], flat = flat[:n:n], flat[n:]
	}
	return pkts, nil
}

// readLoop serves subscriber hellos and NACK repair until the socket
// closes.
func (u *udpPlane) readLoop() {
	buf := make([]byte, wire.MaxDgramSize)
	for {
		n, addr, err := u.pc.ReadFrom(buf)
		if err != nil {
			return
		}
		d, err := wire.DecodeDgram(buf[:n])
		if err != nil || d.Group != u.srv.group {
			continue
		}
		switch d.Type {
		case wire.DgramHello:
			u.handleHello(d, addr)
		case wire.DgramNack:
			u.handleNack(d, addr)
		}
	}
}

// memberLeaf fetches a member's current leaf key — the seal key that
// authenticates its datagrams. Takes s.mu; never call under u.mu.
func (s *Server) memberLeaf(m keytree.MemberID) (keycrypt.Key, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.scheme.Contains(m) {
		return keycrypt.Key{}, false
	}
	keys, err := s.scheme.MemberKeys(m)
	if err != nil || len(keys) == 0 {
		return keycrypt.Key{}, false
	}
	return keys[0], true
}

// handleHello admits a subscription: the sealed body must open under the
// member's leaf key to the fixed hello string, proving the sender is the
// member (or the server) and binding the observed source address.
func (u *udpPlane) handleHello(d wire.Dgram, addr net.Addr) {
	leaf, ok := u.srv.memberLeaf(d.Member)
	if !ok {
		return
	}
	body, err := keycrypt.Open(leaf, d.Sealed)
	if err != nil || string(body) != wire.HelloBody {
		return
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	sub := u.subs[d.Member]
	if sub == nil {
		sub = &udpSub{}
		u.subs[d.Member] = sub
	}
	sub.addr = addr
	n := len(u.subs)
	u.mu.Unlock()
	u.srv.metrics.setUDPSubscribers(n)
}

// handleNack answers one member's NACK: its reported loss sets the
// member's estimate, and each block it cannot read yet gets the shards the
// core's repair rule picks (transport.FECPlan.Repair).
func (u *udpPlane) handleNack(d wire.Dgram, addr net.Addr) {
	leaf, ok := u.srv.memberLeaf(d.Member)
	if !ok {
		return
	}
	body, err := keycrypt.Open(leaf, d.Sealed)
	if err != nil {
		return
	}
	nb, err := wire.DecodeNackBody(body)
	if err != nil || nb.Epoch != d.Epoch {
		return
	}

	var out [][]byte
	repairs := 0
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	sub := u.subs[d.Member]
	if sub == nil {
		sub = &udpSub{}
		u.subs[d.Member] = sub
	}
	sub.addr = addr
	sub.loss.Report(float64(nb.LossPermille) / 1000)
	if ep := u.cur; ep != nil && ep.epoch == nb.Epoch && ep.isReady() {
		r, planned := ep.recv[d.Member]
		for _, blk := range nb.Blocks {
			if !planned || int(blk.Block) >= len(ep.pkts) {
				continue
			}
			shards := ep.plan.Repair(r, int(blk.Block), int(blk.Have))
			if len(shards) > 0 {
				repairs++
			}
			for _, s := range shards {
				out = append(out, ep.pkts[blk.Block][s])
			}
		}
	}
	u.mu.Unlock()
	for _, pkt := range out {
		u.send(pkt, addr)
	}
	u.srv.metrics.noteUDP(len(out), 0, 1, repairs)
}
