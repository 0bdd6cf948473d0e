package server

import (
	"io"
	"net"
	"testing"
	"time"

	"groupkey/internal/wire"
)

// TestServerRejectsGarbageFrames throws malformed traffic at the daemon:
// it must reject the connection without crashing or corrupting group state.
func TestServerRejectsGarbageFrames(t *testing.T) {
	scheme := newScheme(t, 10)
	srv := startServer(t, scheme)
	good := dial(t, srv, wire.JoinRequest{})

	// Raw connection sending a frame with a bogus type.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.MsgType(99), []byte("junk")); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	// The server answers with MsgError and closes.
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("expected an error frame, got read error %v", err)
	}
	if typ != wire.MsgError || len(payload) == 0 {
		t.Fatalf("got %v %q, want MsgError", typ, payload)
	}

	// A join with a truncated payload.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, wire.MsgJoin, []byte{1, 2}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if typ, _, err := wire.ReadFrame(conn2); err != nil || typ != wire.MsgError {
		t.Fatalf("truncated join: got (%v, %v), want MsgError", typ, err)
	}

	// Raw garbage that is not even a frame.
	conn3, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn3.Write([]byte{0xde, 0xad})
	conn3.Close()

	time.Sleep(100 * time.Millisecond)
	// The group is intact and still serves the legitimate member.
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow after garbage: %v", err)
	}
	if srv.Size() != 1 {
		t.Fatalf("group size %d after garbage traffic, want 1", srv.Size())
	}
	if err := srv.Broadcast([]byte("still alive")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	select {
	case msg := <-good.Data():
		if string(msg) != "still alive" {
			t.Fatalf("member got %q", msg)
		}
	case <-time.After(testTimeout):
		t.Fatal("legitimate member starved after garbage traffic")
	}
}

// TestUnflaggedFrameClosesConnection: a frame under the retired 5-byte
// header (a type byte without the group flag) is malformed; both a
// standalone server and a registry close the connection without admitting
// the join it carries.
func TestUnflaggedFrameClosesConnection(t *testing.T) {
	srv := startServer(t, newScheme(t, 14))
	reg := startRegistry(t, 0)
	for name, tc := range map[string]struct {
		addr net.Addr
		srv  *Server
	}{
		"server":   {srv.Addr(), srv},
		"registry": {reg.Addr(), reg.Get(0)},
	} {
		conn, err := net.Dial("tcp", tc.addr.String())
		if err != nil {
			t.Fatalf("%s: Dial: %v", name, err)
		}
		defer conn.Close()
		join := wire.JoinRequest{}.Encode()
		unflagged := append([]byte{0, 0, 0, byte(1 + len(join)), byte(wire.MsgJoin)}, join...)
		if _, err := conn.Write(unflagged); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(testTimeout))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read after unflagged frame: %v, want EOF (connection closed)", name, err)
		}
		tc.srv.mu.Lock()
		n := len(tc.srv.pendingJoins)
		tc.srv.mu.Unlock()
		if n != 0 {
			t.Fatalf("%s: unflagged join queued (%d pending)", name, n)
		}
	}
}

// TestServerLeaveBeforeAdmission covers the join-then-vanish race: a client
// that disconnects before its admitting rekey must never enter the group.
func TestServerLeaveBeforeAdmission(t *testing.T) {
	scheme := newScheme(t, 11)
	srv := startServer(t, scheme)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := wire.WriteFrame(conn, wire.MsgJoin, wire.JoinRequest{}.Encode()); err != nil {
		t.Fatalf("join: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	conn.Close()
	time.Sleep(100 * time.Millisecond)

	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if srv.Size() != 0 {
		t.Fatalf("vanished joiner was admitted: size=%d", srv.Size())
	}
}

// TestServerDoubleJoinOnOneConnection ensures a connection cannot join
// twice (identity confusion).
func TestServerDoubleJoinOnOneConnection(t *testing.T) {
	scheme := newScheme(t, 12)
	srv := startServer(t, scheme)
	c := dial(t, srv, wire.JoinRequest{})

	// Re-send a join over the admitted client's connection.
	if err := wire.WriteFrame(c.conn, wire.MsgJoin, wire.JoinRequest{}.Encode()); err != nil {
		t.Fatalf("second join write: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	// The second join is rejected; depending on timing the server may also
	// evict the misbehaving member, but it must never create two members.
	if srv.Size() > 1 {
		t.Fatalf("double join created %d members", srv.Size())
	}
}

// TestClientJoinTimeout exercises the admission timeout: without a rekey,
// Dial must give up cleanly.
func TestClientJoinTimeout(t *testing.T) {
	scheme := newScheme(t, 13)
	srv := startServer(t, scheme)
	_, err := Dial(srv.Addr().String(), wire.JoinRequest{}, 200*time.Millisecond)
	if err == nil {
		t.Fatal("Dial succeeded without an admitting rekey")
	}
}
