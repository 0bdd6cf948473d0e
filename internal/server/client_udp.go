package server

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"groupkey/internal/fec"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/transport"
	"groupkey/internal/wire"
)

// Client side of the datagram rekey plane. EnableDatagram dials the
// server's UDP socket and subscribes with a sealed hello; from then on
// each epoch's keys arrive as FEC shards, and the TCP connection carries
// only a digest (MsgRekeyDigest) naming the geometry and the member's
// positions in the epoch's packing. Every packet of an epoch carries the
// epoch's one root signature and its path to that root: the client
// verifies the signature once per epoch (wire.DgramVerifier) and checks
// each other packet by its path as it arrives, so a forged, spliced or
// replayed packet never reaches FEC reconstruction. The client reads a
// block once it holds every source shard carrying its positions or any K
// shards (transport.Complete), and applies through the same applyRekey
// path as TCP. Blocks it cannot read yet are NACKed over UDP after
// nackDelay, with the loss it saw; after maxNacks unanswered rounds the
// client falls back to the authoritative TCP pull (MsgRekeyPull), so a
// dead UDP path degrades to exactly the sparse TCP behaviour.

const (
	// defaultNackDelay is how long after a digest (or a NACK) the client
	// waits for missing shards before the next repair round.
	defaultNackDelay = 150 * time.Millisecond
	// defaultMaxNacks bounds UDP repair rounds before the TCP pull.
	defaultMaxNacks = 3
)

// dgramPlane is one client's UDP subscription state. Lock order: d.mu may
// be taken with no other lock held, and c.mu may be taken under d.mu
// (never the reverse).
type dgramPlane struct {
	c         *Client
	conn      net.Conn
	nackDelay time.Duration
	maxNacks  int

	mu     sync.Mutex
	closed bool
	// epochs collects shard payloads per epoch until the digest arrives
	// and the needed blocks complete: epoch → block → shard → payload.
	epochs map[uint64]map[uint16]map[uint8][]byte
	digest *wire.RekeyDigest  // the epoch currently being assembled
	need   []wire.NeededBlock // the blocks carrying digest's positions
	nacks  int
	timer  *time.Timer
}

// EnableDatagram subscribes the client to the server's UDP rekey plane at
// addr. Call after Dial returns (the hello is sealed under the member's
// leaf key). A block the client cannot read nackDelay after the digest or
// its last NACK is NACKed; after maxNacks NACKs the client pulls over TCP.
// nackDelay and maxNacks of 0 select defaults.
func (c *Client) EnableDatagram(addr string, nackDelay time.Duration, maxNacks int) error {
	c.mu.Lock()
	joined := c.joined
	indiv := c.indiv
	id := c.id
	c.mu.Unlock()
	if !joined {
		return ErrNotWelcomed
	}
	if nackDelay <= 0 {
		nackDelay = defaultNackDelay
	}
	if maxNacks <= 0 {
		maxNacks = defaultMaxNacks
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return fmt.Errorf("server: dialing udp %s: %w", addr, err)
	}
	sealed, err := keycrypt.Seal(indiv, []byte(wire.HelloBody), nil)
	if err != nil {
		conn.Close()
		return err
	}
	if _, err := conn.Write(wire.EncodeMemberDgram(wire.DgramHello, c.group, 0, id, sealed)); err != nil {
		conn.Close()
		return fmt.Errorf("server: udp hello: %w", err)
	}
	d := &dgramPlane{
		c:         c,
		conn:      conn,
		nackDelay: nackDelay,
		maxNacks:  maxNacks,
		epochs:    make(map[uint64]map[uint16]map[uint8][]byte),
	}
	c.mu.Lock()
	if c.dgram != nil {
		c.mu.Unlock()
		conn.Close()
		return fmt.Errorf("server: datagram plane already enabled")
	}
	c.dgram = d
	c.mu.Unlock()
	go d.readLoop()
	return nil
}

func (d *dgramPlane) close() {
	d.mu.Lock()
	d.closed = true
	if d.timer != nil {
		d.timer.Stop()
	}
	d.mu.Unlock()
	d.conn.Close()
}

// readLoop collects authentic shard packets of epochs not yet applied
// until the socket closes, keeping a copy of each one's payload only.
func (d *dgramPlane) readLoop() {
	buf := make([]byte, wire.MaxDgramSize)
	verifier := wire.NewDgramVerifier(d.c.ServerKey())
	for {
		n, err := d.conn.Read(buf)
		if err != nil {
			return
		}
		dg, err := wire.DecodeDgram(buf[:n])
		if err != nil || dg.Group != d.c.group {
			continue
		}
		if dg.Type != wire.DgramKeys && dg.Type != wire.DgramParity {
			continue
		}
		if dg.Epoch <= d.c.Epoch() {
			continue // already applied this epoch
		}
		if !verifier.Verify(buf[:n]) {
			d.c.mu.Lock()
			d.c.badSignatures++
			d.c.mu.Unlock()
			continue
		}
		dg.Payload = append([]byte(nil), dg.Payload...)
		d.mu.Lock()
		blocks := d.epochs[dg.Epoch]
		if blocks == nil {
			blocks = make(map[uint16]map[uint8][]byte)
			d.epochs[dg.Epoch] = blocks
		}
		shards := blocks[dg.Block]
		if shards == nil {
			shards = make(map[uint8][]byte)
			blocks[dg.Block] = shards
		}
		shards[dg.Shard] = dg.Payload
		ready := d.digest != nil && d.digest.Epoch == dg.Epoch
		d.mu.Unlock()
		if ready {
			d.tryAssemble()
		}
	}
}

// handleDigest reacts to a MsgRekeyDigest from the TCP read loop: with a
// datagram plane it starts (or completes) assembly of that epoch; without
// one — the server believes we subscribed but we cannot receive — it
// falls straight back to the TCP pull. So does a digest that arrives
// while an earlier epoch is still assembling: the new epoch's items may
// be wrapped under keys only the unfinished one carries, and the pull's
// reply, the member's current key path, holds both.
func (c *Client) handleDigest(dg wire.RekeyDigest) {
	c.mu.Lock()
	d := c.dgram
	cur := c.epoch
	c.mu.Unlock()
	if dg.Epoch <= cur {
		return // stale or replayed announcement
	}
	if d == nil {
		c.pull(dg.Epoch)
		return
	}
	d.mu.Lock()
	if d.digest != nil && d.digest.Epoch < dg.Epoch {
		d.digest = nil // a pending repairRound finds nothing to do
		d.mu.Unlock()
		c.pull(dg.Epoch)
		return
	}
	d.digest = &dg
	d.need = wire.NeededBlocks(dg.Indexes, wire.ShardKeys(int(dg.ShardSize)), dg.Blocks)
	d.nacks = 0
	d.armTimerLocked()
	d.mu.Unlock()
	d.tryAssemble()
}

// pull requests the epoch's authoritative slice over TCP.
func (c *Client) pull(epoch uint64) {
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_ = c.writeFrame(wire.MsgRekeyPull, wire.EncodeRekeyPull(epoch))
}

func (d *dgramPlane) armTimerLocked() {
	if d.timer != nil {
		d.timer.Stop()
	}
	if d.closed {
		return
	}
	d.timer = time.AfterFunc(d.nackDelay, d.repairRound)
}

// tryAssemble reconstructs the needed blocks once enough shards are in,
// and applies the member's items.
func (d *dgramPlane) tryAssemble() {
	d.mu.Lock()
	epoch, items, ok := d.assembleLocked()
	if ok {
		d.digest = nil
		if d.timer != nil {
			d.timer.Stop()
		}
		for e := range d.epochs {
			if e <= epoch {
				delete(d.epochs, e)
			}
		}
	}
	d.mu.Unlock()
	if ok {
		d.c.applyRekey(epoch, items, false)
	}
}

func (d *dgramPlane) assembleLocked() (uint64, []keytree.Item, bool) {
	dg := d.digest
	if dg == nil {
		return 0, nil, false
	}
	if len(dg.Indexes) == 0 {
		// Nothing addressed to us this epoch: the signed digest itself is
		// the heartbeat.
		return dg.Epoch, nil, true
	}
	blocks := d.epochs[dg.Epoch]
	if short, _ := transport.Shortfall(d.need, blocks); len(short) > 0 {
		return 0, nil, false
	}
	// Every needed block is readable: collect our items from the source
	// shards carrying them, reconstructing the block if one is missing.
	byPos := make(map[uint32][]byte)
	for _, nb := range d.need {
		k, total := int(nb.K), int(nb.Shards)
		slots := make([][]byte, total)
		for s, payload := range blocks[nb.Block] {
			if int(s) < total {
				slots[s] = payload
			}
		}
		if slices.ContainsFunc(nb.Sources, func(s uint8) bool { return slots[s] == nil }) {
			for s, payload := range slots {
				if payload != nil {
					slots[s] = make([]byte, dg.ShardSize)
					copy(slots[s], payload)
				}
			}
			coder, err := fec.NewCoder(k, total-k)
			if err == nil {
				err = coder.Reconstruct(slots)
			}
			if err != nil {
				return 0, nil, false
			}
		}
		for _, s := range nb.Sources {
			pos, items, err := wire.ParseShardEntries(slots[s])
			if err != nil {
				return 0, nil, false
			}
			for i, p := range pos {
				byPos[p] = items[i]
			}
		}
	}
	out := make([]keytree.Item, 0, len(dg.Indexes))
	for _, p := range dg.Indexes {
		enc, ok := byPos[p]
		if !ok {
			return 0, nil, false // geometry mismatch: let repair escalate
		}
		it, err := wire.DecodeRekeyItem(enc)
		if err != nil {
			return 0, nil, false
		}
		out = append(out, it)
	}
	return dg.Epoch, out, true
}

// repairRound fires after nackDelay with the epoch still incomplete: NACK
// the per-block deficits (with the observed loss estimate piggybacked),
// or — once maxNacks rounds went unanswered — pull over TCP.
func (d *dgramPlane) repairRound() {
	d.mu.Lock()
	dg := d.digest
	if dg == nil || d.closed {
		d.mu.Unlock()
		return
	}
	report, loss := transport.Shortfall(d.need, d.epochs[dg.Epoch])
	if len(report) == 0 {
		d.mu.Unlock()
		d.tryAssemble()
		return
	}
	if d.nacks >= d.maxNacks {
		epoch := dg.Epoch
		d.digest = nil
		d.mu.Unlock()
		d.c.pull(epoch)
		return
	}
	d.nacks++
	body := wire.NackBody{Epoch: dg.Epoch, LossPermille: loss, Blocks: report}
	d.armTimerLocked()
	d.mu.Unlock()

	d.c.mu.Lock()
	indiv := d.c.indiv
	id := d.c.id
	d.c.mu.Unlock()
	sealed, err := keycrypt.Seal(indiv, body.Encode(), nil)
	if err != nil {
		return
	}
	_, _ = d.conn.Write(wire.EncodeMemberDgram(wire.DgramNack, d.c.group, dg.Epoch, id, sealed))
}
