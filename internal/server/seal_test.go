package server

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/wire"
)

// rawPeer is a member driven one frame at a time, so a test can assert the
// type and bytes of every frame the server chooses to send it.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
	id   keytree.MemberID // set once welcomed
}

func dialRaw(t *testing.T, s *Server) *rawPeer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", s.Addr().String(), testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawPeer{t: t, conn: conn}
}

func (p *rawPeer) send(typ wire.MsgType, payload []byte) {
	p.t.Helper()
	p.conn.SetWriteDeadline(time.Now().Add(testTimeout))
	if err := wire.WriteFrame(p.conn, typ, payload); err != nil {
		p.t.Fatalf("sending %v: %v", typ, err)
	}
}

// expect reads the next frame and fails unless it has the wanted type.
func (p *rawPeer) expect(want wire.MsgType) []byte {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(testTimeout))
	typ, payload, err := wire.ReadFrame(p.conn)
	if err != nil {
		p.t.Fatalf("waiting for %v: %v", want, err)
	}
	if typ != want {
		p.t.Fatalf("got %v, want %v", typ, want)
	}
	return payload
}

// waitPendingJoin returns once a join request has reached the server's
// pending batch.
func waitPendingJoin(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		s.mu.Lock()
		n := len(s.pendingJoins)
		s.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("join never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
}

// joinRaw registers a raw peer and runs the admitting rekey, returning the
// peer (welcome consumed, its epoch frame still unread) and that rekey.
func joinRaw(t *testing.T, s *Server) (*rawPeer, *core.Rekey) {
	t.Helper()
	p := dialRaw(t, s)
	p.send(wire.MsgJoin, wire.JoinRequest{}.Encode())
	waitPendingJoin(t, s)
	rekey, err := s.RekeyNow()
	if err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	w, err := wire.DecodeSignedWelcome(p.expect(wire.MsgWelcome))
	if err != nil {
		t.Fatal(err)
	}
	p.id = w.Member
	return p, rekey
}

// resumeRaw re-attaches a saved session over a raw peer, consuming the
// resume welcome.
func resumeRaw(t *testing.T, s *Server, st *ClientState) *rawPeer {
	t.Helper()
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], uint64(st.Member.ID()))
	proof, err := keycrypt.Seal(st.Indiv, id[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	p := dialRaw(t, s)
	p.send(wire.MsgResume, wire.ResumeRequest{Member: st.Member.ID(), Proof: proof}.Encode())
	p.expect(wire.MsgWelcome)
	return p
}

// expectPath reads the peer's next frame and fails unless it is a
// verified sparse frame at the server's current epoch carrying member m's
// key path: one item per key above its leaf, len(MemberKeys(m))-1 in all.
func expectPath(t *testing.T, p *rawPeer, s *Server, m keytree.MemberID) []keytree.Item {
	t.Helper()
	sr, err := wire.DecodeSparseRekey(s.SigningKey(), p.expect(wire.MsgRekeySparse))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	keys, err := s.scheme.MemberKeys(m)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if epoch := s.Epoch(); sr.Epoch != epoch || len(sr.Items) != len(keys)-1 {
		t.Fatalf("path frame: epoch %d with %d items, want epoch %d with %d",
			sr.Epoch, len(sr.Items), epoch, len(keys)-1)
	}
	return sr.Items
}

// TestResumeAndPullGetKeyPath: a member that resumed after an epoch was
// sealed is in no index of it. Its resume is answered with its current key
// path alone, from which it converges; its pulls in that epoch are already
// answered and get nothing more. In later epochs, its pull of the
// un-indexed epoch and a pull naming an older epoch are each answered with
// the path at the server's epoch, and so is a pull from a member that was
// connected at the seal.
func TestResumeAndPullGetKeyPath(t *testing.T) {
	scheme := newScheme(t, 60)
	srv1 := startServer(t, scheme)
	away := dial(t, srv1, wire.JoinRequest{})
	dial(t, srv1, wire.JoinRequest{})
	if err := away.WaitEpoch(2, testTimeout); err != nil {
		t.Fatal(err)
	}
	state, err := away.State()
	if err != nil {
		t.Fatal(err)
	}
	// A second server life over the same scheme and signing key: both
	// members are in the group, neither is connected.
	priv := srv1.signPriv
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithKey(scheme, nil, priv)
	srv.SetNextID(away.ID() + 2)
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	// Epoch 3 is sealed with the joiner as the whole audience.
	present, rekey := joinRaw(t, srv)
	if len(rekey.AllItems()) == 0 {
		t.Fatal("join epoch carries no items")
	}
	dek, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	converges := func(what string, st *ClientState, items []keytree.Item) {
		t.Helper()
		mem, err := member.Restore(st.Member.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		mem.Apply(items)
		if !mem.Has(dek) {
			t.Fatalf("%s: the member did not converge on the group key", what)
		}
	}

	st, err := DecodeClientState(state)
	if err != nil {
		t.Fatal(err)
	}
	m := st.Member.ID()
	late := resumeRaw(t, srv, st)
	converges("resume", st, expectPath(t, late, srv, m))
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch-1))

	// The member connected at the seal pulls the epoch it was sent.
	present.expect(wire.MsgRekeySparse)
	present.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	expectPath(t, present, srv, present.id)

	// Epochs with nothing for anyone: each member's next frame is the
	// broadcast heartbeat, so the resumed member's pulls in the sealed
	// epoch got no reply; pulls naming any earlier epoch get the path at
	// the new one.
	idle := func() {
		t.Helper()
		rk, err := srv.RekeyNow()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rk.AllItems()); n != 0 {
			t.Fatalf("idle epoch carries %d items", n)
		}
		for _, p := range []*rawPeer{present, late} {
			sr, err := wire.DecodeSparseRekey(srv.SigningKey(), p.expect(wire.MsgRekeySparse))
			if err != nil {
				t.Fatal(err)
			}
			if sr.Epoch != rk.Epoch || len(sr.Items) != 0 {
				t.Fatalf("got epoch %d with %d items, want the heartbeat of epoch %d", sr.Epoch, len(sr.Items), rk.Epoch)
			}
		}
	}
	idle()
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	converges("un-indexed pull", st, expectPath(t, late, srv, m))
	present.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(srv.Epoch()))
	expectPath(t, present, srv, present.id)
	idle()
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch-1))
	converges("stale-epoch pull", st, expectPath(t, late, srv, m))
}

// TestCloseDropsPendingJoins: a join still waiting for its admitting rekey
// must not keep Close waiting for the peer to hang up first.
func TestCloseDropsPendingJoins(t *testing.T) {
	srv := startServer(t, newScheme(t, 62))
	p := dialRaw(t, srv)
	p.send(wire.MsgJoin, wire.JoinRequest{}.Encode())
	waitPendingJoin(t, srv)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(testTimeout):
		p.conn.Close() // let Close finish before failing
		<-closed
		t.Fatal("Close waited for a pending join's peer to disconnect")
	}
}
