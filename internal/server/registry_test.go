package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// startRegistry brings up a registry hosting one in-memory OneTree per
// requested group, each built with the production per-group key-ID base
// so the isolation oracle sees exactly what keyserverd -groups deploys.
func startRegistry(t *testing.T, groups ...wire.GroupID) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, g := range groups {
		scheme, err := core.NewOneTree(
			core.WithRand(keycrypt.NewDeterministicReader(100+uint64(g))),
			core.WithKeyIDBase(store.GroupKeyIDBase(g)),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(g, New(scheme, nil)); err != nil {
			t.Fatalf("Add(%d): %v", g, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	reg.Serve(ln)
	t.Cleanup(func() { reg.Close() })
	return reg
}

// dialGroup joins one member into group g through the registry's shared
// listener, triggering that group's admitting rekey.
func dialGroup(t *testing.T, reg *Registry, g wire.GroupID) *Client {
	t.Helper()
	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := DialGroup(reg.Addr().String(), g, wire.JoinRequest{}, testTimeout)
		ch <- result{c, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.Get(g).RekeyNow(); err != nil {
		t.Fatalf("RekeyNow(%d): %v", g, err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("DialGroup(%d): %v", g, r.err)
	}
	t.Cleanup(func() { r.c.Close() })
	return r.c
}

// TestRegistryGroupIsolationOracle is the per-group isolation oracle: with
// several groups behind one listener, every client must hold exactly its
// own group's key, member IDs may collide across groups without mixing
// state, and rekeying one group must not advance another group's epoch.
func TestRegistryGroupIsolationOracle(t *testing.T) {
	groups := []wire.GroupID{0, 1, 17} // 1 and 17 share a stripe
	reg := startRegistry(t, groups...)

	clients := make(map[wire.GroupID]*Client)
	for _, g := range groups {
		clients[g] = dialGroup(t, reg, g)
	}

	// Each group's server sees exactly one member — the same member ID in
	// every group, which only works if the schemes are truly disjoint.
	for _, g := range groups {
		if n := reg.Get(g).Size(); n != 1 {
			t.Fatalf("group %d size %d, want 1", g, n)
		}
		if id := clients[g].ID(); id != clients[groups[0]].ID() {
			t.Fatalf("group %d assigned member %d; groups should mint IDs independently", g, id)
		}
	}

	deks := make(map[wire.GroupID]keycrypt.Key)
	for _, g := range groups {
		dek, err := reg.Get(g).scheme.GroupKey()
		if err != nil {
			t.Fatalf("GroupKey(%d): %v", g, err)
		}
		deks[g] = dek
	}
	for _, g := range groups {
		if err := clients[g].WaitEpoch(1, testTimeout); err != nil {
			t.Fatalf("group %d WaitEpoch: %v", g, err)
		}
		for _, other := range groups {
			has := clients[g].HasKey(deks[other])
			if other == g && !has {
				t.Fatalf("group %d client lacks its own group key", g)
			}
			if other != g && has {
				t.Fatalf("group %d client holds group %d's key", g, other)
			}
		}
	}

	// Rekey group 1 three more times; groups 0 and 17 must not move.
	before0, before17 := clients[0].Epoch(), clients[17].Epoch()
	for i := 0; i < 3; i++ {
		if _, err := reg.Get(1).RekeyNow(); err != nil {
			t.Fatalf("RekeyNow(1): %v", err)
		}
	}
	if err := clients[1].WaitEpoch(4, testTimeout); err != nil {
		t.Fatalf("group 1 WaitEpoch(4): %v", err)
	}
	if e := clients[0].Epoch(); e != before0 {
		t.Fatalf("group 0 epoch moved %d → %d on group 1's rekeys", before0, e)
	}
	if e := clients[17].Epoch(); e != before17 {
		t.Fatalf("group 17 epoch moved %d → %d on group 1's rekeys", before17, e)
	}
}

// TestRegistryUnknownGroupRejected proves a join addressed to a group the
// registry does not host is answered with a terminal wire error.
func TestRegistryUnknownGroupRejected(t *testing.T) {
	reg := startRegistry(t, 0)
	_, err := DialGroup(reg.Addr().String(), 42, wire.JoinRequest{}, testTimeout)
	if err == nil {
		t.Fatal("joined a group the registry does not host")
	}
	if !strings.Contains(err.Error(), "unknown group 42") {
		t.Fatalf("error %q does not name the unknown group", err)
	}
}

// TestRegistryDefaultClientLandsOnGroupZero: a client dialed without a
// group joins through the registry and lands on group 0.
func TestRegistryDefaultClientLandsOnGroupZero(t *testing.T) {
	reg := startRegistry(t, 0, 3)

	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := Dial(reg.Addr().String(), wire.JoinRequest{}, testTimeout)
		ch <- result{c, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := reg.Get(0).RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Dial through registry: %v", r.err)
	}
	defer r.c.Close()
	if n := reg.Get(0).Size(); n != 1 {
		t.Fatalf("group 0 size %d, want 1", n)
	}
	if n := reg.Get(3).Size(); n != 0 {
		t.Fatalf("group-0 client leaked into group 3 (size %d)", n)
	}
}

// TestRegistryCrossGroupFrameRejected: once a connection is bound to a
// group by its first frame, a frame addressed to a different group on the
// same connection — group 0 included — is rejected and the connection
// closed.
func TestRegistryCrossGroupFrameRejected(t *testing.T) {
	for _, other := range []wire.GroupID{2, 0} {
		reg := startRegistry(t, 0, 1, 2)
		conn, err := net.Dial("tcp", reg.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		// Bind to group 1 with a join, then try to smuggle a leave into
		// another group.
		if err := wire.WriteFrameGroup(conn, 1, wire.MsgJoin, wire.JoinRequest{}.Encode()); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Get(1).RekeyNow(); err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrameGroup(conn, other, wire.MsgLeave, nil); err != nil {
			t.Fatal(err)
		}

		conn.SetReadDeadline(time.Now().Add(testTimeout))
		sawError := false
		for {
			g, mt, _, err := wire.ReadFrameGroup(conn)
			if err != nil {
				break // server closed the connection
			}
			if g != 1 {
				t.Fatalf("group 1 connection got a frame addressed to group %d", g)
			}
			if mt == wire.MsgError {
				sawError = true
			}
		}
		if !sawError {
			t.Fatalf("frame for group %d on a group 1 connection was not answered with MsgError", other)
		}
		if n := reg.Get(other).Size(); n != 0 {
			t.Fatalf("cross-group frame reached group %d (size %d)", other, n)
		}
	}
}

// TestRegistryRekeyAllNow advances every hosted group by one epoch in one
// call, stripes in parallel.
func TestRegistryRekeyAllNow(t *testing.T) {
	groups := []wire.GroupID{0, 1, 2, 16, 17} // stripe collisions included
	reg := startRegistry(t, groups...)
	clients := make(map[wire.GroupID]*Client)
	for _, g := range groups {
		clients[g] = dialGroup(t, reg, g)
	}
	if err := reg.RekeyAllNow(); err != nil {
		t.Fatalf("RekeyAllNow: %v", err)
	}
	for _, g := range groups {
		if err := clients[g].WaitEpoch(2, testTimeout); err != nil {
			t.Fatalf("group %d never saw the fleet rekey: %v", g, err)
		}
	}
	if got := len(reg.Groups()); got != len(groups) {
		t.Fatalf("Groups() lists %d groups, want %d", got, len(groups))
	}
}

// TestRegistryAddDuplicate rejects hosting the same group twice.
func TestRegistryAddDuplicate(t *testing.T) {
	reg := NewRegistry()
	scheme, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(7, New(scheme, nil)); err != nil {
		t.Fatal(err)
	}
	other, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(2)))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(other, nil)
	defer srv.Close()
	if err := reg.Add(7, srv); err == nil {
		t.Fatal("duplicate group accepted")
	}
	reg.Close()
}
