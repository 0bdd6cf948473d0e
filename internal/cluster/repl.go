package cluster

import (
	"errors"
	"fmt"
	"groupkey/internal/clock"
	"net"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// Inter-node replication. Primary side: accept a ReplHello per (follower,
// group), answer with the signing seed and lease epoch, catch the follower
// up — incrementally from the WAL when its epoch matches and the log still
// reaches back far enough, otherwise with a full snapshot (which also
// erases any suffix the follower journaled under a deposed epoch) — then
// stream every freshly journaled record live. Follower side: dial the
// shard's lease holder, adopt the signing identity, apply the stream
// verbatim, and acknowledge so the primary can export replication lag.

// replIdleTimeout bounds how long a follower waits on a silent stream
// before re-dialing; it doubles as the liveness check that notices a dead
// primary even when no records flow.
const replIdleTimeout = 10 * time.Second

// acceptRepl runs the replication accept loop.
func (n *Node) acceptRepl(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
				return
			default:
			}
			n.cfg.Logf("cluster: repl accept: %v", err)
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveStream(conn)
		}()
	}
}

// serveStream handles one follower connection as primary.
func (n *Node) serveStream(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	t, payload, err := wire.ReadFrame(conn)
	if err != nil || t != wire.MsgReplHello {
		return
	}
	hello, err := wire.DecodeReplHello(payload)
	if err != nil {
		return
	}

	n.mu.Lock()
	gs := n.groups[hello.Group]
	var epoch uint64
	owned := false
	if gs != nil {
		owned = gs.shard.hold.Owned
		epoch = gs.shard.hold.Lease.Epoch
	}
	n.mu.Unlock()
	if gs == nil {
		n.replReject(conn, fmt.Sprintf("unknown group %d", hello.Group))
		return
	}
	if !owned {
		n.replReject(conn, fmt.Sprintf("not primary for group %d", hello.Group))
		return
	}

	// Subscribe before reading the log so nothing journaled between
	// catch-up and the live loop is missed; the live loop dedupes by
	// sequence.
	st := gs.rep.Store
	sub := st.Subscribe(1024)
	defer st.Unsubscribe(sub)

	// The snapshot cut runs under the live server's BootstrapState, which
	// freezes it, so blob, nextID and LastSeq are consistent.
	cut := func(fn func(core.Scheme, keytree.MemberID) error) error {
		gs.mu.Lock()
		srv := gs.srv
		gs.mu.Unlock()
		if srv == nil {
			return errors.New("cluster: demoted mid-handshake")
		}
		return srv.BootstrapState(fn)
	}
	recs, snap, err := gs.rep.CatchUp(hello, epoch, cut)
	if errors.Is(err, ErrFenced) {
		n.replReject(conn, err.Error())
		return
	}
	if err != nil {
		n.cfg.Logf("cluster: group %d: catch-up for %s: %v", hello.Group, hello.Node, err)
		return
	}

	welcome := wire.ReplWelcome{Epoch: epoch, LastSeq: st.LastSeq(), SigningSeed: st.SigningSeed()}
	wbody, err := welcome.Encode()
	if err != nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	if err := wire.WriteFrame(conn, wire.MsgReplWelcome, wbody); err != nil {
		return
	}
	sentSeq := hello.HaveSeq
	for _, rec := range recs {
		if err := n.shipRecord(conn, epoch, rec); err != nil {
			return
		}
		sentSeq = rec.Seq
	}
	if snap != nil {
		conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
		if err := wire.WriteFrame(conn, wire.MsgReplSnapshot, snap.Encode()); err != nil {
			return
		}
		n.cfg.Metrics.noteSnapshotShipped()
		sentSeq = snap.Seq
	}

	// Drain follower acknowledgements for the lag gauge; a read error ends
	// the stream.
	readErr := make(chan struct{})
	go func() {
		defer close(readErr)
		for {
			conn.SetReadDeadline(time.Time{})
			t, payload, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			if t != wire.MsgReplAck {
				return
			}
			acked, err := wire.DecodeReplAck(payload)
			if err != nil {
				return
			}
			if last := st.LastSeq(); last >= acked {
				n.cfg.Metrics.noteLag(last - acked)
			}
		}
	}()

	for {
		select {
		case rec, open := <-sub.C():
			if !open {
				return // lagged out or store shutting down; follower re-syncs
			}
			if rec.Seq <= sentSeq {
				continue // already covered by catch-up
			}
			if rec.Seq != sentSeq+1 {
				return // log jumped (snapshot installed under us); re-sync
			}
			if err := n.shipRecord(conn, epoch, rec); err != nil {
				return
			}
			sentSeq = rec.Seq
		case <-readErr:
			return
		case <-n.stop:
			return
		}
	}
}

// shipRecord sends one WAL record, stamped with the primary's epoch.
func (n *Node) shipRecord(conn net.Conn, epoch uint64, rec store.Record) error {
	frame := wire.ReplRecord{Epoch: epoch, Kind: rec.Kind, Seq: rec.Seq, Seed: rec.Seed, Payload: rec.Payload}
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	if err := wire.WriteFrame(conn, wire.MsgReplRecord, frame.Encode()); err != nil {
		return err
	}
	n.cfg.Metrics.noteShipped()
	return nil
}

// replReject answers a hello with an error frame.
func (n *Node) replReject(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	wire.WriteFrame(conn, wire.MsgError, []byte(msg))
}

// followLoop keeps one group's replica in sync whenever this node is not
// the group's primary.
func (n *Node) followLoop(gs *groupState) {
	defer n.wg.Done()
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		if n.ownsShard(gs.shard.id) {
			if !n.sleep(n.cfg.LeaseTTL / 3) {
				return
			}
			continue
		}
		err := n.followOnce(gs)
		if err == nil {
			backoff = 50 * time.Millisecond
		} else {
			select {
			case <-n.stop:
				return
			default:
			}
			n.cfg.Logf("cluster: group %d: follow: %v", gs.g, err)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		if !n.sleep(backoff) {
			return
		}
	}
}

// sleep waits d on the node clock or until the node stops; it reports
// whether to continue.
func (n *Node) sleep(d time.Duration) bool {
	select {
	case <-n.stop:
		return false
	case <-clock.Or(n.cfg.Clock).After(d):
		return true
	}
}

// errNoOwner reports that no node currently holds the shard's lease.
var errNoOwner = errors.New("cluster: shard has no live lease")

// followOnce dials the group's current primary and applies its stream
// until the connection dies, this node is promoted, or the node stops.
func (n *Node) followOnce(gs *groupState) error {
	lease, ok := n.cfg.Authority.Peek(gs.shard.id)
	if !ok {
		return errNoOwner
	}
	if lease.Owner == n.cfg.Node {
		return nil // promotion in flight; the loop idles while owned
	}
	peer, ok := n.cfg.peer(lease.Owner)
	if !ok {
		return fmt.Errorf("cluster: lease held by unknown node %q", lease.Owner)
	}
	conn, err := net.DialTimeout("tcp", peer.ReplAddr, n.cfg.DialTimeout)
	if err != nil {
		return err
	}
	// Publish the stream so promotion (and Close) can sever it; if either
	// happened since the checks above, back out.
	gs.mu.Lock()
	if gs.srv != nil {
		gs.mu.Unlock()
		conn.Close()
		return nil
	}
	gs.conn = conn
	hello := gs.rep.Hello(gs.g, n.cfg.Node)
	gs.mu.Unlock()
	defer func() {
		gs.mu.Lock()
		if gs.conn == conn {
			gs.conn = nil
		}
		gs.mu.Unlock()
		conn.Close()
	}()

	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	if err := wire.WriteFrame(conn, wire.MsgReplHello, hello.Encode()); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(n.cfg.DialTimeout))
	t, payload, err := wire.ReadFrame(conn)
	if err != nil {
		return err
	}
	switch t {
	case wire.MsgReplWelcome:
	case wire.MsgError:
		return fmt.Errorf("cluster: primary %s refused: %s", lease.Owner, payload)
	default:
		return fmt.Errorf("cluster: unexpected %v answering hello", t)
	}
	welcome, err := wire.DecodeReplWelcome(payload)
	if err != nil {
		return err
	}
	// Adopt the group's signing identity so a later promotion serves the
	// exact key resuming members have pinned.
	if err := gs.rep.Store.AdoptSigningKey(welcome.SigningSeed); err != nil {
		return err
	}

	for {
		conn.SetReadDeadline(time.Now().Add(replIdleTimeout))
		t, payload, err := wire.ReadFrame(conn)
		if err != nil {
			return err
		}
		var seq uint64
		switch t {
		case wire.MsgReplSnapshot:
			var snap wire.ReplSnapshot
			if snap, err = wire.DecodeReplSnapshot(payload); err == nil {
				seq = snap.Seq
				err = gs.accept(func(r *Replica) error { return r.AcceptSnapshot(snap) })
			}
		case wire.MsgReplRecord:
			var rec wire.ReplRecord
			if rec, err = wire.DecodeReplRecord(payload); err == nil {
				seq = rec.Seq
				err = gs.accept(func(r *Replica) error { return r.AcceptRecord(rec) })
			}
		case wire.MsgError:
			return fmt.Errorf("cluster: primary %s: %s", lease.Owner, payload)
		default:
			return fmt.Errorf("cluster: unexpected %v on replication stream", t)
		}
		if err != nil {
			return err
		}
		if err := n.ack(conn, seq); err != nil {
			return err
		}
	}
}

// accept runs one of the replica's acceptance rules under the group lock,
// unless the group was promoted mid-stream.
func (gs *groupState) accept(rule func(*Replica) error) error {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.srv != nil {
		return errors.New("cluster: promoted mid-stream")
	}
	return rule(gs.rep)
}

// ack acknowledges the newest applied sequence.
func (n *Node) ack(conn net.Conn, seq uint64) error {
	conn.SetWriteDeadline(time.Now().Add(n.cfg.DialTimeout))
	return wire.WriteFrame(conn, wire.MsgReplAck, wire.EncodeReplAck(seq))
}
