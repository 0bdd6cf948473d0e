package server

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
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

// joinRaw registers a raw peer with the given capabilities and runs the
// admitting rekey, returning the peer (welcome consumed, its epoch frame
// still unread) and that rekey.
func joinRaw(t *testing.T, s *Server, caps uint8) (*rawPeer, *core.Rekey) {
	t.Helper()
	p := dialRaw(t, s)
	p.send(wire.MsgJoin, wire.JoinRequest{Caps: caps}.Encode())
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

// fullBlob is the reference construction of an epoch's signed full frame.
func fullBlob(t *testing.T, priv ed25519.PrivateKey, rekey *core.Rekey) []byte {
	t.Helper()
	payload, err := wire.EncodeRekey(rekey.Epoch, rekey.AllItems())
	if err != nil {
		t.Fatal(err)
	}
	return wire.SignRekey(priv, payload)
}

// TestPullAfterSealGetsFullBlob: an epoch's index covers the members
// connected when it was sealed. One of those pulling the epoch gets its
// sparse slice — the k=0 heartbeat when the epoch holds nothing for it. A
// member that resumed after the seal is in no index: its pull must be
// answered with the signed full blob, from which it converges, never with
// an empty sparse frame that would leave it a key behind.
func TestPullAfterSealGetsFullBlob(t *testing.T) {
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
	present, rekey := joinRaw(t, srv, wire.CapSparse)
	want := fullBlob(t, priv, rekey)
	pub := srv.SigningKey()

	st, err := DecodeClientState(state)
	if err != nil {
		t.Fatal(err)
	}
	var id [8]byte
	binary.BigEndian.PutUint64(id[:], uint64(st.Member.ID()))
	proof, err := keycrypt.Seal(st.Indiv, id[:], nil)
	if err != nil {
		t.Fatal(err)
	}
	late := dialRaw(t, srv)
	late.send(wire.MsgResume, wire.ResumeRequest{Member: st.Member.ID(), Proof: proof, Caps: wire.CapSparse}.Encode())
	late.expect(wire.MsgWelcome)
	if got := late.expect(wire.MsgRekey); !bytes.Equal(got, want) {
		t.Fatal("resume re-delivery differs from SignRekey(EncodeRekey(epoch 3))")
	}
	late.send(wire.MsgRekeyPull, wire.EncodeRekeyPull(rekey.Epoch))
	pulled := late.expect(wire.MsgRekey)
	if !bytes.Equal(pulled, want) {
		t.Fatal("pull by a member resumed after the seal differs from the signed full blob")
	}
	inner, err := wire.OpenSignedRekey(pub, pulled)
	if err != nil {
		t.Fatal(err)
	}
	_, items, err := wire.DecodeRekey(inner)
	if err != nil {
		t.Fatal(err)
	}
	st.Member.Apply(items)
	dek, err := scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Member.Has(dek) {
		t.Fatal("resumed member did not converge on the group key from the pulled blob")
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

// TestFullBlobOnDemand: an epoch whose clients are all sparse builds no
// full blob until someone asks — LastRekeyBlob, a legacy client's fan-out
// frame — and what it then builds is exactly SignRekey(EncodeRekey(...))
// of that epoch. Priming keeps overriding it until the next epoch.
func TestFullBlobOnDemand(t *testing.T) {
	srv := startServer(t, newScheme(t, 61))
	priv, pub := srv.signPriv, srv.SigningKey()
	built := func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.lastRekeyBlob != nil
	}
	if srv.LastRekeyBlob() != nil {
		t.Fatal("blob before the first rekey")
	}

	sparse, rekey := joinRaw(t, srv, wire.CapSparse)
	sparse.expect(wire.MsgRekeySparse)
	if built() {
		t.Fatal("an all-sparse epoch built the full blob")
	}
	blob := srv.LastRekeyBlob()
	if !bytes.Equal(blob, fullBlob(t, priv, rekey)) {
		t.Fatal("LastRekeyBlob differs from SignRekey(EncodeRekey(...)) of the epoch")
	}
	if _, err := wire.OpenSignedRekey(pub, blob); err != nil {
		t.Fatalf("OpenSignedRekey: %v", err)
	}
	if again := srv.LastRekeyBlob(); &again[0] != &blob[0] {
		t.Fatal("second LastRekeyBlob call rebuilt the blob")
	}

	// A client without CapSparse joins mid-run: its epoch frame is the full
	// blob of the new epoch, while the sparse client still gets its slice.
	legacy, rekey := joinRaw(t, srv, 0)
	want := fullBlob(t, priv, rekey)
	if got := legacy.expect(wire.MsgRekey); !bytes.Equal(got, want) {
		t.Fatal("legacy client's frame differs from SignRekey(EncodeRekey(...)) of the epoch")
	}
	if _, err := wire.DecodeSparseRekey(pub, sparse.expect(wire.MsgRekeySparse)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srv.LastRekeyBlob(), want) {
		t.Fatal("LastRekeyBlob differs from what the legacy client was sent")
	}

	primed := []byte("a previous generation's signed frame")
	srv.SetLastRekeyBlob(primed)
	if !bytes.Equal(srv.LastRekeyBlob(), primed) {
		t.Fatal("SetLastRekeyBlob did not override the epoch's blob")
	}
	rekey, err := srv.RekeyNow()
	if err != nil {
		t.Fatal(err)
	}
	want = fullBlob(t, priv, rekey)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srv.LastRekeyBlob(), want) {
		t.Fatal("LastRekeyBlob after Close is not the last epoch's blob")
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
