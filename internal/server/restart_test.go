package server

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

func startDurableServer(t *testing.T, dir string) (*Server, *store.Store, *store.RecoveryResult) {
	t.Helper()
	return startDurableServerWith(t, dir, store.SchemeConfig{Kind: store.SchemeTT, SPeriodK: 2})
}

// startDurableServerWith recovers a store-backed server from dir, creating
// the scheme from cfg on a fresh directory.
func startDurableServerWith(t *testing.T, dir string, cfg store.SchemeConfig) (*Server, *store.Store, *store.RecoveryResult) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Recover()
	if err != nil {
		st.Close()
		t.Fatalf("Recover: %v", err)
	}
	scheme := res.Scheme
	if scheme == nil {
		scheme, err = st.Create(cfg)
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
	}
	srv := NewWithKey(scheme, nil, st.SigningKey())
	srv.Persist(st, 0) // snapshot only on Close
	srv.SetNextID(res.NextID)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	srv.Serve(ln)
	return srv, st, res
}

// TestServerRestartResume is the whole point of the durable store, end to
// end over the wire: members join a store-backed server, the server shuts
// down and a new process recovers from the state directory, and the old
// members resume their session — same IDs, same keys — and decrypt the
// next rekey without ever re-joining.
func TestServerRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir)

	clients := make([]*Client, 0, 3)
	for i := 0; i < 3; i++ {
		clients = append(clients, dial(t, srv, wire.JoinRequest{LossRate: 0.01}))
	}
	// One member leaves before the restart; its eviction must persist.
	goneID := clients[2].ID()
	if err := clients[2].Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	for _, c := range clients[:2] {
		if err := c.WaitEpoch(4, testTimeout); err != nil {
			t.Fatalf("WaitEpoch before restart: %v", err)
		}
	}

	// Detach (not leave): save each survivor's state, then kill everything.
	states := make([][]byte, 2)
	ids := make([]keytree.MemberID, 2)
	for i, c := range clients[:2] {
		blob, err := c.State()
		if err != nil {
			t.Fatalf("State: %v", err)
		}
		states[i] = blob
		ids[i] = c.ID()
		c.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("server Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}

	// Second life: recover from the state directory.
	srv2, st2, res := startDurableServer(t, dir)
	defer func() {
		srv2.Close()
		st2.Close()
	}()
	if srv2.Size() != 2 {
		t.Fatalf("recovered group has %d members, want 2", srv2.Size())
	}
	if res.NextID <= goneID {
		t.Fatalf("recovered NextID %d could reuse evicted ID %d", res.NextID, goneID)
	}

	resumed := make([]*Client, 2)
	for i, blob := range states {
		c, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
		if err != nil {
			t.Fatalf("ResumeDial client %d: %v", i, err)
		}
		defer c.Close()
		if c.ID() != ids[i] {
			t.Fatalf("client %d resumed as member %d, want %d", i, c.ID(), ids[i])
		}
		if c.Epoch() != 4 {
			t.Fatalf("client %d resumed at epoch %d, want 4", i, c.Epoch())
		}
		resumed[i] = c
	}

	// A fresh joiner must get an ID the first life never issued.
	fresh := dial(t, srv2, wire.JoinRequest{LossRate: 0.1})
	if fresh.ID() < res.NextID {
		t.Fatalf("fresh joiner got ID %d, below recovered NextID %d", fresh.ID(), res.NextID)
	}

	// The join's rekey is epoch 5; resumed members follow it with the keys
	// they held before the restart.
	dek, err := srv2.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range append(resumed, fresh) {
		if err := c.WaitEpoch(5, testTimeout); err != nil {
			t.Fatalf("client %d WaitEpoch after restart: %v", i, err)
		}
		if !c.HasKey(dek) {
			t.Fatalf("client %d lacks the post-restart group key", i)
		}
	}

	msg := []byte("act 2: same keys, new process")
	if err := srv2.Broadcast(msg); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i, c := range append(resumed, fresh) {
		select {
		case got := <-c.Data():
			if !bytes.Equal(got, msg) {
				t.Fatalf("client %d got %q", i, got)
			}
		case <-time.After(testTimeout):
			t.Fatalf("client %d never received data after restart", i)
		}
	}

	// The evicted member's stale state must NOT resume.
	if srv2.scheme.Contains(goneID) {
		t.Fatalf("evicted member %d still present after recovery", goneID)
	}
}

// TestResumeClosesCrashWindow: an epoch journaled and broadcast while a
// member is detached, in a life that dies before any snapshot covers it,
// is replayed by the next life's recovery. The member resuming there is
// sent its key path in the replayed scheme and converges on the group key
// the lost instance derived.
func TestResumeClosesCrashWindow(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir)
	away := dial(t, srv, wire.JoinRequest{LossRate: 0.01})
	if err := away.WaitEpoch(1, testTimeout); err != nil {
		t.Fatal(err)
	}
	state, err := away.State()
	if err != nil {
		t.Fatal(err)
	}
	away.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: a newcomer's join epoch is journaled and broadcast while
	// the member is away, then the process dies: detaching the store first
	// keeps Close from writing the snapshot that would cover the epoch.
	srv2, st2, _ := startDurableServer(t, dir)
	_, lost := joinRaw(t, srv2)
	srv2.Persist(nil, 0)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	srv3, st3, res := startDurableServer(t, dir)
	defer func() {
		srv3.Close()
		st3.Close()
	}()
	if res.ReplayedBatches == 0 || srv3.Epoch() != lost.Epoch {
		t.Fatalf("recovery replayed %d batches to epoch %d, want the unsnapshotted epoch %d",
			res.ReplayedBatches, srv3.Epoch(), lost.Epoch)
	}
	cs, err := DecodeClientState(state)
	if err != nil {
		t.Fatal(err)
	}
	late := resumeRaw(t, srv3, cs)
	cs.Member.Apply(expectPath(t, late, srv3, cs.Member.ID()))
	dek, err := srv3.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Member.Has(dek) {
		t.Fatal("resumed member lacks the group key of the epoch the crash cut off")
	}
}

// TestServerRestartEvictsDetachedOnTimeout: a member that detaches and
// never resumes is still evicted by the abrupt-disconnect path when its
// connection drops in the second life — resume is a grace window, not
// immortality. Here we just check that a resumed client that then leaves
// is gone from both the scheme and the next recovery.
func TestServerRestartResumeThenLeave(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir)
	c := dial(t, srv, wire.JoinRequest{})
	id := c.ID()
	blob, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2, _ := startDurableServer(t, dir)
	rc, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
	if err != nil {
		t.Fatalf("ResumeDial: %v", err)
	}
	if err := rc.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := srv2.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	if srv2.scheme.Contains(id) {
		t.Fatal("member still present after resumed leave")
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Third life: the leave survived the restart too.
	srv3, st3, _ := startDurableServer(t, dir)
	defer func() {
		srv3.Close()
		st3.Close()
	}()
	if srv3.scheme.Contains(id) {
		t.Fatal("evicted member resurrected by recovery")
	}
	if srv3.Size() != 0 {
		t.Fatalf("group size %d after full churn, want 0", srv3.Size())
	}
}

// TestResumeAfterMissedEpochs: every member of a durable OneTree group
// saves its state and the server restarts. Fifteen resume, and some of
// them leave, one epoch each, so the path keys of member 0 change in every
// epoch it misses. When member 0 resumes it must reach the server's epoch
// holding that epoch's group key, one round trip after its resume.
func TestResumeAfterMissedEpochs(t *testing.T) {
	for _, missed := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("missed=%d", missed), func(t *testing.T) {
			dir := t.TempDir()
			srv, st, _ := startDurableServerWith(t, dir, store.SchemeConfig{Kind: store.SchemeOneTree, Degree: 2})
			clients := dialMany(t, srv, 16)
			states := make([][]byte, len(clients))
			for i, c := range clients {
				blob, err := c.State()
				if err != nil {
					t.Fatal(err)
				}
				states[i] = blob
				c.Close()
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			srv2, st2, _ := startDurableServer(t, dir)
			defer func() {
				srv2.Close()
				st2.Close()
			}()
			resumed := make([]*Client, 0, len(states)-1)
			for _, blob := range states[1:] {
				c, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
				if err != nil {
					t.Fatalf("ResumeDial: %v", err)
				}
				defer c.Close()
				resumed = append(resumed, c)
			}
			for _, c := range resumed[:missed] {
				if err := c.Leave(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "pending leave", func() bool { return pendingLeaveCount(srv2) == 1 })
				if _, err := srv2.RekeyNow(); err != nil {
					t.Fatal(err)
				}
			}

			c0, err := ResumeDial(srv2.Addr().String(), states[0], testTimeout)
			if err != nil {
				t.Fatalf("ResumeDial member 0: %v", err)
			}
			defer c0.Close()
			epoch := srv2.Epoch()
			if err := c0.WaitEpoch(epoch, testTimeout); err != nil {
				t.Fatal(err)
			}
			dek, err := srv2.scheme.GroupKey()
			if err != nil {
				t.Fatal(err)
			}
			if c0.Epoch() != epoch || !c0.HasKey(dek) {
				t.Fatalf("member 0 reports epoch %d (server %d) and holds the group key: %v",
					c0.Epoch(), epoch, c0.HasKey(dek))
			}
		})
	}
}

// dialMany admits n members in one rekey.
func dialMany(t *testing.T, s *Server, n int) []*Client {
	t.Helper()
	type result struct {
		c   *Client
		err error
	}
	ch := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			c, err := Dial(s.Addr().String(), wire.JoinRequest{}, testTimeout)
			ch <- result{c, err}
		}()
	}
	waitPendingJoins(t, s, n)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, 0, n)
	for i := 0; i < n; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatalf("Dial: %v", r.err)
		}
		t.Cleanup(func() { r.c.Close() })
		clients = append(clients, r.c)
	}
	return clients
}

// TestResumeAfterMissedMigrationConverges: a TT member detached across its
// own S→L migration still holds its individual key, which it keeps for
// life, so its resume proof opens. The server counts no rejection, and the
// key path the resume is answered with takes the member to the group key
// within that one round trip.
func TestResumeAfterMissedMigrationConverges(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServer(t, dir) // TT, S-period 2
	c := dial(t, srv, wire.JoinRequest{})
	id := c.ID()
	blob, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	saved, err := DecodeClientState(blob)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2, _ := startDurableServer(t, dir)
	defer func() {
		srv2.Close()
		st2.Close()
	}()
	m := NewMetrics(metrics.NewRegistry(), nil)
	srv2.Instrument(m)
	tp := srv2.scheme.(*core.TwoPartition)
	// Rekey until the scheme has moved the member to the L partition.
	for i := 0; tp.LPartitionSize() == 0; i++ {
		if i == 8 {
			t.Fatal("the member never migrated out of the S partition")
		}
		if _, err := srv2.RekeyNow(); err != nil {
			t.Fatal(err)
		}
	}
	srv2.mu.Lock()
	keys, err := srv2.scheme.MemberKeys(id)
	srv2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !keys[0].Equal(saved.Indiv) {
		t.Fatalf("the migration changed the member's individual key %v to %v", saved.Indiv.ID, keys[0].ID)
	}

	before := m.rejected.Value()
	rc, err := ResumeDial(srv2.Addr().String(), blob, testTimeout)
	if err != nil {
		t.Fatalf("ResumeDial after a missed migration: %v", err)
	}
	defer rc.Close()
	epoch := srv2.Epoch()
	if err := rc.WaitEpoch(epoch, testTimeout); err != nil {
		t.Fatal(err)
	}
	dek, err := srv2.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !rc.HasKey(k) {
			t.Fatalf("the resumed member lacks %v of its L path (epoch %d of %d)", k.ID, rc.Epoch(), epoch)
		}
	}
	if !rc.HasKey(dek) {
		t.Fatal("the resumed member lacks the group key")
	}
	if got := m.rejected.Value(); got != before {
		t.Fatalf("rejected registrations %d → %d, want none", before, got)
	}
}

// TestResumeAdoptsPathOverLostEpochs: a primary broadcasts epochs it never
// makes durable, then dies; its successor recovers without them and issues
// the same key versions again with other material. A member that applied
// the lost epochs holds those copies; when it resumes, the key path it is
// sent replaces them and it holds the successor's group key.
func TestResumeAdoptsPathOverLostEpochs(t *testing.T) {
	dir := t.TempDir()
	srv, st, _ := startDurableServerWith(t, dir, store.SchemeConfig{Kind: store.SchemeOneTree, Degree: 2})
	clients := dialMany(t, srv, 4)
	a := clients[0]
	// From here on nothing reaches the journal: two departures are
	// broadcast and lost with the process.
	srv.Persist(nil, 0)
	for _, c := range clients[1:3] {
		if err := c.Leave(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "pending leave", func() bool { return pendingLeaveCount(srv) == 1 })
		if _, err := srv.RekeyNow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.WaitEpoch(srv.Epoch(), testTimeout); err != nil {
		t.Fatal(err)
	}
	state, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The successor replays to the epoch before the departures and runs
	// an epoch of its own: the same version, another key.
	srv2, st2, _ := startDurableServer(t, dir)
	defer func() {
		srv2.Close()
		st2.Close()
	}()
	dialMany(t, srv2, 1)
	dek, err := srv2.scheme.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	saved, err := DecodeClientState(state)
	if err != nil {
		t.Fatal(err)
	}
	stale, ok := saved.Member.Key(dek.ID)
	if !ok || stale.Version < dek.Version || stale.Equal(dek) {
		t.Fatalf("the saved group key %v is not a lost copy at version ≥ %d", stale, dek.Version)
	}

	c, err := ResumeDial(srv2.Addr().String(), state, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "the successor's group key", func() bool { return c.HasKey(dek) })
}
