package server

import (
	"bytes"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/wire"
)

const testTimeout = 5 * time.Second

func startServer(t *testing.T, scheme core.Scheme) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := New(scheme, nil)
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server, req wire.JoinRequest) *Client {
	t.Helper()
	return dialVia(t, s, s.Addr().String(), req)
}

// dialVia joins s through addr, a relay in front of it.
func dialVia(t *testing.T, s *Server, addr string, req wire.JoinRequest) *Client {
	t.Helper()
	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := Dial(addr, req, testTimeout)
		ch <- result{c, err}
	}()
	// The server admits at the next rekey; trigger it once the join has
	// had a moment to land.
	time.Sleep(50 * time.Millisecond)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Dial: %v", r.err)
	}
	t.Cleanup(func() { r.c.Close() })
	return r.c
}

func newScheme(t *testing.T, seed uint64) core.Scheme {
	t.Helper()
	s, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJoinAndBroadcast(t *testing.T) {
	scheme := newScheme(t, 1)
	srv := startServer(t, scheme)

	clients := make([]*Client, 0, 4)
	for i := 0; i < 4; i++ {
		clients = append(clients, dial(t, srv, wire.JoinRequest{LossRate: 0.02}))
	}
	if srv.Size() != 4 {
		t.Fatalf("server size %d, want 4", srv.Size())
	}

	// Every client agrees on the group key with the server, once it has
	// caught up with the rekeys triggered by the later joins.
	dek, err := scheme.GroupKey()
	if err != nil {
		t.Fatalf("GroupKey: %v", err)
	}
	for i, c := range clients {
		if err := c.WaitEpoch(4, testTimeout); err != nil {
			t.Fatalf("client %d WaitEpoch: %v", i, err)
		}
		if !c.HasKey(dek) {
			t.Fatalf("client %d lacks the group key", i)
		}
	}

	msg := []byte("scene 1: the auction opens")
	if err := srv.Broadcast(msg); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i, c := range clients {
		select {
		case got := <-c.Data():
			if !bytes.Equal(got, msg) {
				t.Fatalf("client %d got %q", i, got)
			}
		case <-time.After(testTimeout):
			t.Fatalf("client %d never received data", i)
		}
	}
}

func TestLeaveForwardSecrecy(t *testing.T) {
	scheme := newScheme(t, 2)
	srv := startServer(t, scheme)

	alice := dial(t, srv, wire.JoinRequest{})
	bob := dial(t, srv, wire.JoinRequest{})

	oldDEK, _ := scheme.GroupKey()

	// Bob leaves; the group is rekeyed.
	if err := bob.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if srv.Size() != 1 {
		t.Fatalf("server size %d, want 1", srv.Size())
	}

	newDEK, err := scheme.GroupKey()
	if err != nil {
		t.Fatalf("GroupKey: %v", err)
	}
	if newDEK.Equal(oldDEK) {
		t.Fatal("group key not refreshed on departure")
	}

	// Wait until Alice has processed the departure rekey.
	if err := alice.WaitEpoch(3, testTimeout); err != nil {
		t.Fatalf("alice WaitEpoch: %v", err)
	}

	// Data sealed under the new key: Alice reads it, Bob cannot.
	blob, err := keycrypt.Seal(newDEK, []byte("post-departure secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := alice.TryOpen(blob); err != nil {
		t.Fatalf("alice cannot decrypt post-departure data: %v", err)
	}
	if _, err := bob.TryOpen(blob); err == nil {
		t.Fatal("bob decrypted data sealed after his departure (forward secrecy broken)")
	}
}

func TestJoinBackwardSecrecy(t *testing.T) {
	scheme := newScheme(t, 3)
	srv := startServer(t, scheme)

	_ = dial(t, srv, wire.JoinRequest{})
	oldDEK, _ := scheme.GroupKey()
	oldBlob, err := keycrypt.Seal(oldDEK, []byte("pre-join secret"), nil)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}

	carol := dial(t, srv, wire.JoinRequest{})
	// dial returns at the welcome; the admitting rekey follows it.
	if err := carol.WaitEpoch(2, testTimeout); err != nil {
		t.Fatalf("carol WaitEpoch: %v", err)
	}
	// Carol decrypts current data...
	newDEK, _ := scheme.GroupKey()
	newBlob, _ := keycrypt.Seal(newDEK, []byte("current"), nil)
	if _, err := carol.TryOpen(newBlob); err != nil {
		t.Fatalf("carol cannot decrypt current data: %v", err)
	}
	// ...but not data from before she joined.
	if _, err := carol.TryOpen(oldBlob); err == nil {
		t.Fatal("carol decrypted pre-join data (backward secrecy broken)")
	}
}

func TestAbruptDisconnectEvicts(t *testing.T) {
	scheme := newScheme(t, 4)
	srv := startServer(t, scheme)

	a := dial(t, srv, wire.JoinRequest{})
	b := dial(t, srv, wire.JoinRequest{})
	_ = a

	// b vanishes without a leave message.
	b.conn.Close()
	time.Sleep(100 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if srv.Size() != 1 {
		t.Fatalf("server size %d after abrupt disconnect, want 1", srv.Size())
	}
}

func TestTwoPartitionSchemeOverTheWire(t *testing.T) {
	scheme, err := core.NewTwoPartition(core.TT, 2, core.WithRand(keycrypt.NewDeterministicReader(5)))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, scheme)

	clients := make([]*Client, 0, 3)
	for i := 0; i < 3; i++ {
		clients = append(clients, dial(t, srv, wire.JoinRequest{}))
	}
	// Run empty rekeys so the members out-age the S-period and migrate.
	for i := 0; i < 3; i++ {
		if _, err := srv.RekeyNow(); err != nil {
			t.Fatalf("RekeyNow: %v", err)
		}
	}
	if scheme.LPartitionSize() != 3 {
		t.Fatalf("L partition holds %d members, want 3 after migration", scheme.LPartitionSize())
	}
	// Members survived migration over the wire: broadcast still reaches all.
	epoch := clients[0].Epoch()
	_ = epoch
	msg := []byte("after migration")
	// Every client must have processed the migration payloads; wait for
	// the latest epoch before asserting.
	for _, c := range clients {
		if err := c.WaitEpoch(6, testTimeout); err != nil {
			t.Fatalf("WaitEpoch: %v", err)
		}
	}
	if err := srv.Broadcast(msg); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i, c := range clients {
		select {
		case got := <-c.Data():
			if !bytes.Equal(got, msg) {
				t.Fatalf("client %d got %q", i, got)
			}
		case <-time.After(testTimeout):
			t.Fatalf("client %d never received post-migration data (undecryptable=%d)", i, c.Undecryptable())
		}
	}
}

func TestPeriodicRekeying(t *testing.T) {
	scheme := newScheme(t, 6)
	srv := startServer(t, scheme)
	srv.StartPeriodic(30 * time.Millisecond)

	// With periodic rekeying running, a plain Dial is admitted without an
	// explicit RekeyNow.
	c, err := Dial(srv.Addr().String(), wire.JoinRequest{}, testTimeout)
	if err != nil {
		t.Fatalf("Dial under periodic rekeying: %v", err)
	}
	defer c.Close()
	if srv.Size() != 1 {
		t.Fatalf("server size %d, want 1", srv.Size())
	}
}

func TestRotateNowOverTheWire(t *testing.T) {
	scheme := newScheme(t, 60)
	srv := startServer(t, scheme)
	a := dial(t, srv, wire.JoinRequest{})
	b := dial(t, srv, wire.JoinRequest{})

	before, _ := scheme.GroupKey()
	rekey, err := srv.RotateNow()
	if err != nil {
		t.Fatalf("RotateNow: %v", err)
	}
	if rekey.MulticastKeyCount() != 1 {
		t.Fatalf("rotation cost %d keys, want 1", rekey.MulticastKeyCount())
	}
	after, _ := scheme.GroupKey()
	if after.Equal(before) {
		t.Fatal("rotation did not change the group key")
	}
	for _, c := range []*Client{a, b} {
		if err := c.WaitEpoch(rekey.Epoch, testTimeout); err != nil {
			t.Fatalf("WaitEpoch: %v", err)
		}
		if !c.HasKey(after) {
			t.Fatal("client missed the rotated key")
		}
	}
}
