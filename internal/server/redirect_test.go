package server

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"groupkey/internal/wire"
)

// staticResolver is a fixed cluster map for tests; a group mapped to ""
// is known but has no owner yet.
type staticResolver map[wire.GroupID]string

func (r staticResolver) Locate(g wire.GroupID) (string, uint64, bool, bool) {
	addr, known := r[g]
	return addr, 7, known, addr != ""
}

// TestRegistryRedirectsToOwner: a registry that does not host a group but
// has a cluster map answers the join with a redirect, and DialGroup
// follows it to the owning registry transparently.
func TestRegistryRedirectsToOwner(t *testing.T) {
	owner := startRegistry(t, 5)
	stranger := startRegistry(t) // hosts nothing
	stranger.SetResolver(staticResolver{5: owner.Addr().String()})

	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := DialGroup(stranger.Addr().String(), 5, wire.JoinRequest{}, testTimeout)
		ch <- result{c, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := owner.Get(5).RekeyNow(); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("redirected join failed: %v", r.err)
	}
	defer r.c.Close()
	if r.c.ID() == 0 {
		t.Fatal("no member ID assigned")
	}

	// Without a resolver the same miss is a terminal protocol error.
	bare := startRegistry(t)
	if _, err := DialGroup(bare.Addr().String(), 5, wire.JoinRequest{}, testTimeout); err == nil ||
		!strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("resolver-less miss: %v", err)
	}
}

// TestResumeAtOwnerlessNodeIsDeferred: a resume routed to a cluster node
// whose map knows the group but no owner for it yet, as during a failover,
// is deferred (DeferredError), not refused, so the member keeps its saved
// session. A group the map has never heard of, or a node without a
// cluster map, still refuses it.
func TestResumeAtOwnerlessNodeIsDeferred(t *testing.T) {
	owner := startRegistry(t, 5)
	c := dialGroup(t, owner, 5)
	state, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	node := startRegistry(t)
	node.SetResolver(staticResolver{5: ""})
	_, err = ResumeDial(node.Addr().String(), state, testTimeout)
	var def *DeferredError
	if errors.Is(err, ErrRejected) || !errors.As(err, &def) || def.After <= 0 {
		t.Fatalf("resume at a node that knows no owner: %v, want a DeferredError with a hint", err)
	}

	stranger := startRegistry(t)
	stranger.SetResolver(staticResolver{})
	if _, err := ResumeDial(stranger.Addr().String(), state, testTimeout); !errors.Is(err, ErrRejected) {
		t.Fatalf("resume at a node whose map lacks the group: %v, want ErrRejected", err)
	}

	bare := startRegistry(t)
	if _, err := ResumeDial(bare.Addr().String(), state, testTimeout); !errors.Is(err, ErrRejected) {
		t.Fatalf("resume at a node without a cluster map: %v, want ErrRejected", err)
	}
}

// TestRedirectLoopBounded: a cluster map pointing back at the same node
// must surface the redirect as an error, not dial forever.
func TestRedirectLoopBounded(t *testing.T) {
	reg := startRegistry(t)
	reg.SetResolver(staticResolver{9: reg.Addr().String()})
	_, err := DialGroup(reg.Addr().String(), 9, wire.JoinRequest{}, testTimeout)
	var rd *RedirectError
	if !errors.As(err, &rd) {
		t.Fatalf("want RedirectError, got %v", err)
	}
	if rd.Addr != reg.Addr().String() || rd.Epoch != 7 {
		t.Fatalf("redirect carried (%q, %d)", rd.Addr, rd.Epoch)
	}
}

// TestWhereIs queries the cluster map service directly.
func TestWhereIs(t *testing.T) {
	reg := startRegistry(t, 0)
	reg.SetResolver(staticResolver{3: "10.9.8.7:7600"})

	addr, epoch, err := WhereIs(reg.Addr().String(), 3, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "10.9.8.7:7600" || epoch != 7 {
		t.Fatalf("got (%q, %d)", addr, epoch)
	}
	if _, _, err := WhereIs(reg.Addr().String(), 42, testTimeout); err == nil ||
		!strings.Contains(err.Error(), "unknown group") {
		t.Fatalf("unknown group located: %v", err)
	}
}

// deniedFence fails every check.
type deniedFence struct{}

func (deniedFence) Check() error { return errors.New("lease expired") }

// grantedFence passes every check.
type grantedFence struct{}

func (grantedFence) Check() error { return nil }

// TestFenceBlocksMutations: with a failing fence attached, RekeyNow and
// RotateNow are rejected with ErrFenced before anything mutates — the
// deposed-primary guarantee.
func TestFenceBlocksMutations(t *testing.T) {
	s := startServer(t, newScheme(t, 77))
	s.SetFence(grantedFence{})
	dial(t, s, wire.JoinRequest{})
	epoch := s.Epoch()

	s.SetFence(deniedFence{})
	if _, err := s.RekeyNow(); !errors.Is(err, ErrFenced) {
		t.Fatalf("RekeyNow under lost lease: %v", err)
	}
	if _, err := s.RotateNow(); !errors.Is(err, ErrFenced) {
		t.Fatalf("RotateNow under lost lease: %v", err)
	}
	if got := s.Epoch(); got != epoch {
		t.Fatalf("fenced server still advanced epoch %d → %d", epoch, got)
	}

	s.SetFence(grantedFence{})
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow after re-acquiring lease: %v", err)
	}
}

// TestFenceBlocksKeyPath: a key path overrides the versions a member
// holds, so a server that lost its lease answers a pull with the fencing
// error, not with its possibly stale path.
func TestFenceBlocksKeyPath(t *testing.T) {
	s := startServer(t, newScheme(t, 78))
	s.SetFence(grantedFence{})
	c := dial(t, s, wire.JoinRequest{})

	s.SetFence(deniedFence{})
	c.pull(s.Epoch())
	select {
	case <-c.Done():
	case <-time.After(testTimeout):
		t.Fatal("a fenced server kept answering the pull")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), ErrFenced.Error()) {
		t.Fatalf("pull to a fenced server ended with %v, want the fencing error", err)
	}
}

// TestGroupFramesRideNonzeroGroupBinding: once a connection is routed to
// a nonzero group, follow-up frames addressed to that group are served on
// the connection's binding, and a frame addressed to another group is the
// protocol error.
func TestGroupFramesRideNonzeroGroupBinding(t *testing.T) {
	reg := startRegistry(t, 4)
	conn, err := net.Dial("tcp", reg.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Route with a group-addressed join, then resume the conversation with
	// a leave addressed to the same group.
	if err := wire.WriteFrameGroup(conn, 4, wire.MsgJoin, wire.JoinRequest{}.Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "join routed", func() bool {
		reg.Get(4).mu.Lock()
		defer reg.Get(4).mu.Unlock()
		return len(reg.Get(4).pendingJoins) == 1
	})
	if _, err := reg.Get(4).RekeyNow(); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrameGroup(conn, 4, wire.MsgLeave, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leave rode binding", func() bool {
		srv := reg.Get(4)
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.pendingLeaves) == 1
	})

	// A frame explicitly addressed to a different group on the same bound
	// connection is the protocol error.
	if err := wire.WriteFrameGroup(conn, 6, wire.MsgLeave, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	conn.SetReadDeadline(deadline)
	for {
		tp, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("connection died without the cross-group error: %v", err)
		}
		if tp == wire.MsgError {
			if !strings.Contains(string(payload), "group 6") {
				t.Fatalf("unexpected error payload %q", payload)
			}
			break
		}
	}
}
