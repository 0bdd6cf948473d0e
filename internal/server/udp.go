package server

import (
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
// server as FEC-coded UDP packets instead of per-member TCP frames. Each
// epoch's items are packed sequentially into source shards, grouped into
// Reed-Solomon blocks whose parity count is sized from the subscribers'
// reported loss (WKA-BKR's E[M], with parity substituting for weighted
// replicas), and every packet is individually signed. Subscribed members'
// TCP frames shrink to a digest naming the geometry and their item
// indexes; members that cannot complete a block NACK their deficit over
// UDP and, as a last resort, pull their slice over TCP (MsgRekeyPull).
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
	// KeysPerDgram is how many (leafIdx, item) entries ride one source
	// shard (default 12 — well under an 1500-byte MTU with header+sig).
	KeysPerDgram int
	// BlockSize is the number of source shards per FEC block (default 8).
	BlockSize int
	// MinParity/MaxParity clamp the per-block proactive parity count
	// (defaults 1 and 8).
	MinParity int
	MaxParity int
	// Drop, when set, is consulted before every outbound packet; true
	// drops it. Send-side loss injection for tests and the CI smoke —
	// calls are serialized by the plane.
	Drop func() bool
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.KeysPerDgram <= 0 {
		c.KeysPerDgram = 12
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 8
	}
	if c.MinParity <= 0 {
		c.MinParity = 1
	}
	if c.MaxParity <= 0 {
		c.MaxParity = 8
	}
	if c.MaxParity < c.MinParity {
		c.MaxParity = c.MinParity
	}
	return c
}

// udpSub is one subscribed member: where to send, its latest reported
// loss estimate, and its repair cursor.
type udpSub struct {
	addr net.Addr
	loss float64
	// cursor rotates per-block repair resends so consecutive NACK rounds
	// reach shards the member has not seen yet; reset when cursorEpoch
	// falls behind.
	cursor      map[uint16]int
	cursorEpoch uint64
}

// udpEpoch is one epoch's transmitted geometry plus the signed packets,
// kept until the next epoch replaces it so NACKs can be answered by
// resending.
type udpEpoch struct {
	epoch     uint64
	shardSize int
	blocks    []wire.DigestBlock
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
	srv *Server
	pc  net.PacketConn
	cfg UDPConfig

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
		cfg:  cfg.withDefaults(),
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

// send writes one packet, honoring the loss-injection hook. The return
// reports whether the packet actually left (injected drops count as sent
// for the caller's bookkeeping — the wire saw the cost of a real network
// dropping it).
func (u *udpPlane) send(pkt []byte, addr net.Addr) {
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	if u.cfg.Drop != nil && u.cfg.Drop() {
		return
	}
	_, _ = u.pc.WriteTo(pkt, addr)
}

// planEpoch carves one epoch's items into FEC blocks for the current
// subscriber set and kicks off the asynchronous transmit. It returns the
// set of members whose keys travel over UDP this epoch (nil when the
// plane is absent, idle, or the epoch is empty); those members' TCP
// frames become digests. Callers hold s.mu.
func (u *udpPlane) planEpoch(s *Server, eb *epochBuffer) map[keytree.MemberID]bool {
	if u == nil || eb.nItems == 0 {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed || len(u.subs) == 0 {
		return nil
	}
	over := make(map[keytree.MemberID]bool, len(u.subs))
	var losses []float64
	dests := make([]net.Addr, 0, len(u.subs))
	for id, sub := range u.subs {
		if s.conns[id] == nil {
			continue // subscribed but not connected: no digest, no send
		}
		over[id] = true
		losses = append(losses, sub.loss)
		dests = append(dests, sub.addr)
	}
	if len(over) == 0 {
		return nil
	}

	kpd := u.cfg.KeysPerDgram
	nShards := (eb.nItems + kpd - 1) / kpd
	shardSize := 2 + kpd*(4+wire.RekeyItemSize)
	var blocks []wire.DigestBlock
	for b, off := 0, 0; off < nShards; b++ {
		k := u.cfg.BlockSize
		if rem := nShards - off; rem < k {
			k = rem
		}
		parity := transport.ProactiveParity(k, losses, u.cfg.MinParity, u.cfg.MaxParity)
		if k+parity > 255 {
			parity = 255 - k
		}
		blocks = append(blocks, wire.DigestBlock{Block: uint16(b), K: uint8(k), Shards: uint8(k + parity)})
		off += k
	}

	ep := &udpEpoch{
		epoch:     eb.epoch,
		shardSize: shardSize,
		blocks:    blocks,
		ready:     make(chan struct{}),
	}
	u.cur = ep
	eb.retain() // transmit goroutine's reference
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer eb.release()
		u.transmit(ep, eb, dests)
	}()
	return over
}

// digestFor encodes the MsgRekeyDigest payload for one subscribed member:
// the epoch's signed root, the member's item indexes idx, and the block
// geometry its NACKs will reference. Callers hold s.mu right after a
// planEpoch that returned the member, so u.cur matches eb.
func (u *udpPlane) digestFor(eb *epochBuffer, idx []uint32) []byte {
	if u == nil {
		return nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.cur == nil || u.cur.epoch != eb.epoch {
		return nil
	}
	d := wire.RekeyDigest{
		Epoch:     eb.epoch,
		NLeaves:   uint32(eb.nItems),
		Root:      eb.root,
		Sig:       eb.rootSig,
		ShardSize: uint16(u.cur.shardSize),
		Indexes:   idx,
		Blocks:    u.cur.blocks,
	}
	return d.Encode()
}

// transmit builds, signs and multicasts one epoch's packets (unicast
// fan-out to every subscriber, like the TCP plane), then publishes them
// for NACK repair. Runs without locks; eb is immutable and retained.
func (u *udpPlane) transmit(ep *udpEpoch, eb *epochBuffer, dests []net.Addr) {
	kpd := u.cfg.KeysPerDgram
	ep.pkts = make([][][]byte, len(ep.blocks))
	packets, parityPkts := 0, 0
	gs := 0 // global source-shard index
	for bi, blk := range ep.blocks {
		k := int(blk.K)
		data := make([][]byte, k)
		unpadded := make([][]byte, k)
		for j := 0; j < k; j++ {
			lo := (gs + j) * kpd
			hi := lo + kpd
			if hi > eb.nItems {
				hi = eb.nItems
			}
			shard := make([]byte, 2, ep.shardSize)
			binary.BigEndian.PutUint16(shard, uint16(hi-lo))
			for it := lo; it < hi; it++ {
				shard = wire.AppendShardEntry(shard, uint32(it), eb.item(it))
			}
			unpadded[j] = shard
			padded := make([]byte, ep.shardSize)
			copy(padded, shard)
			data[j] = padded
		}
		gs += k

		parity := int(blk.Shards) - k
		var par [][]byte
		if parity > 0 {
			coder, err := fec.NewCoder(k, parity)
			if err == nil {
				par, err = coder.Encode(data)
			}
			if err != nil {
				par = nil // geometry bug; source shards still flow
			}
		}

		pkts := make([][]byte, 0, k+len(par))
		for j := 0; j < k; j++ {
			pkts = append(pkts, wire.EncodeShardDgram(u.srv.signPriv, wire.DgramKeys,
				u.srv.group, ep.epoch, blk.Block, uint8(j), blk.K, unpadded[j]))
		}
		for j, p := range par {
			pkts = append(pkts, wire.EncodeShardDgram(u.srv.signPriv, wire.DgramParity,
				u.srv.group, ep.epoch, blk.Block, uint8(k+j), blk.K, p))
		}
		ep.pkts[bi] = pkts
		for _, pkt := range pkts {
			for _, d := range dests {
				u.send(pkt, d)
			}
		}
		packets += len(pkts) * len(dests)
		parityPkts += len(par) * len(dests)
	}
	close(ep.ready)
	u.srv.metrics.noteUDP(packets, parityPkts, 0, 0)
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

// handleNack answers one member's deficit report: its loss estimate feeds
// the next epoch's parity sizing, and each short block gets deficit+1
// shards resent from the member's rotating cursor — successive rounds
// walk the whole shard set, so repair converges even though the server
// does not know which shards the member holds.
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

	type resend struct {
		pkt  []byte
		addr net.Addr
	}
	var out []resend
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
	sub.loss = float64(nb.LossPermille) / 1000
	ep := u.cur
	if ep != nil && ep.epoch == nb.Epoch && ep.isReady() {
		if sub.cursorEpoch != ep.epoch || sub.cursor == nil {
			sub.cursor = make(map[uint16]int)
			sub.cursorEpoch = ep.epoch
		}
		for _, blk := range nb.Blocks {
			bi := int(blk.Block)
			if bi >= len(ep.blocks) {
				continue
			}
			deficit := int(ep.blocks[bi].K) - int(blk.Have)
			if deficit <= 0 {
				continue
			}
			repairs++
			pkts := ep.pkts[bi]
			cur := sub.cursor[blk.Block]
			for i := 0; i <= deficit && i < len(pkts); i++ {
				out = append(out, resend{pkt: pkts[(cur+i)%len(pkts)], addr: addr})
			}
			sub.cursor[blk.Block] = (cur + deficit + 1) % len(pkts)
		}
	}
	u.mu.Unlock()
	for _, r := range out {
		u.send(r.pkt, r.addr)
	}
	u.srv.metrics.noteUDP(len(out), 0, 1, repairs)
}
