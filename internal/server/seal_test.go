package server

import (
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// rawPeer is a member driven one frame at a time, so a test can assert the
// type and bytes of every frame the server chooses to send it.
type rawPeer struct {
	t    *testing.T
	conn net.Conn
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
	if _, err := wire.DecodeSignedWelcome(p.expect(wire.MsgWelcome)); err != nil {
		t.Fatal(err)
	}
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

// expectEveryItem reads the peer's next frame and fails unless it is a
// verified sparse frame carrying every item of rekey, in order.
func expectEveryItem(t *testing.T, p *rawPeer, pub ed25519.PublicKey, rekey *core.Rekey) []keytree.Item {
	t.Helper()
	sr, err := wire.DecodeSparseRekey(pub, p.expect(wire.MsgRekeySparse))
	if err != nil {
		t.Fatal(err)
	}
	want := rekey.AllItems()
	if sr.Epoch != rekey.Epoch || len(sr.Items) != len(want) {
		t.Fatalf("sparse frame: epoch %d with %d items, want epoch %d with all %d",
			sr.Epoch, len(sr.Items), rekey.Epoch, len(want))
	}
	for i := range want {
		if sr.Items[i].Wrapped != want[i].Wrapped {
			t.Fatalf("item %d differs from the epoch's", i)
		}
	}
	return sr.Items
}

// TestPullAfterSealGetsEveryItem: an epoch's index covers the members
// connected when it was sealed. One of those pulling the epoch gets its
// sparse slice — the k=0 heartbeat when the epoch holds nothing for it. A
// member that resumed after the seal is in no index: its resume and its
// pull must each be answered with a sparse frame carrying every item, from
// which it converges, never with an empty one that would leave it a key
// behind.
func TestPullAfterSealGetsEveryItem(t *testing.T) {
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
	pub := srv.SigningKey()

	st, err := DecodeClientState(state)
	if err != nil {
		t.Fatal(err)
	}
	late := resumeRaw(t, srv, st)
	expectEveryItem(t, late, pub, rekey) // the resume re-delivery
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	st.Member.Apply(expectEveryItem(t, late, pub, rekey))
	dek, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Member.Has(dek) {
		t.Fatal("resumed member did not converge on the group key from the pulled frame")
	}

	// The member connected at the seal pulls the same epoch sparsely.
	first, err := wire.DecodeSparseRekey(pub, present.expect(wire.MsgRekeySparse))
	if err != nil {
		t.Fatal(err)
	}
	present.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	again, err := wire.DecodeSparseRekey(pub, present.expect(wire.MsgRekeySparse))
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Items) == 0 || len(again.Items) != len(first.Items) || again.Epoch != rekey.Epoch {
		t.Fatalf("connected pull: %d items at epoch %d, broadcast had %d at %d",
			len(again.Items), again.Epoch, len(first.Items), rekey.Epoch)
	}
	// A pull for an epoch the server no longer retains gets every item of
	// the one it does.
	present.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch-1))
	expectEveryItem(t, present, pub, rekey)

	// An epoch with nothing for anyone: both are connected at its seal, so
	// both pulls are answered with the signed k=0 heartbeat.
	idle, err := srv.RekeyNow()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(idle.AllItems()); n != 0 {
		t.Fatalf("idle epoch carries %d items", n)
	}
	for name, p := range map[string]*rawPeer{"present": present, "late": late} {
		p.expect(wire.MsgRekeySparse) // the broadcast heartbeat
		p.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(idle.Epoch))
		hb, err := wire.DecodeSparseRekey(pub, p.expect(wire.MsgRekeySparse))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hb.Epoch != idle.Epoch || len(hb.Items) != 0 {
			t.Fatalf("%s: heartbeat pull returned epoch %d with %d items", name, hb.Epoch, len(hb.Items))
		}
	}
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
