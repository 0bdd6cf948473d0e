package loadgen

import (
	"context"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
	"groupkey/internal/workload"
)

// startServer brings up an in-process key server with a fast rekey ticker
// — the loadgen only ever sees the wire protocol, same as against a live
// keyserverd.
func startServer(t *testing.T, policy *server.OverloadPolicy, period time.Duration) *server.Server {
	t.Helper()
	scheme, err := core.NewOneTree(core.WithRand(keycrypt.NewDeterministicReader(7)))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(scheme, nil)
	if policy != nil {
		s.SetOverloadPolicy(*policy)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s.Serve(ln)
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.RekeyNow()
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		s.Close()
	})
	return s
}

func TestSoakSmallGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := startServer(t, nil, 30*time.Millisecond)
	r := New(Config{
		Addr:     s.Addr().String(),
		Members:  16,
		Duration: 2 * time.Second,
		Seed:     1,
		// Aggressive compression so every slot churns several sessions.
		Churn:       workload.PaperDefault().Compressed(1000),
		MinStay:     50 * time.Millisecond,
		JoinTimeout: 5 * time.Second,
	})
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Joins < uint64(16) {
		t.Fatalf("expected every slot to join at least once, got %d joins", rep.Joins)
	}
	if rep.Leaves == 0 {
		t.Fatal("no session ever left: churn did not happen")
	}
	if rep.ProtocolErrors != 0 {
		t.Fatalf("protocol errors against a healthy server: %d (%v)", rep.ProtocolErrors, rep.ErrorSamples)
	}
	if rep.RekeysSeen == 0 || rep.FinalEpoch == 0 {
		t.Fatalf("no rekeys observed: seen=%d final=%d", rep.RekeysSeen, rep.FinalEpoch)
	}
	if rep.JoinLatency.Count != rep.Joins {
		t.Fatalf("join latency count %d != joins %d", rep.JoinLatency.Count, rep.Joins)
	}
	if rep.PeakActive == 0 || rep.PeakActive > 16 {
		t.Fatalf("implausible peak active %d", rep.PeakActive)
	}
	// The report must survive its own wire format.
	b, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("EncodeReport: %v", err)
	}
	if _, err := DecodeReport(b); err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
}

func TestSoakHonorsAdmissionDeferrals(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	policy := server.DefaultOverloadPolicy()
	policy.JoinRate = 4
	policy.JoinBurst = 1
	policy.RetryFloor = 50 * time.Millisecond
	s := startServer(t, &policy, 30*time.Millisecond)
	r := New(Config{
		Addr:        s.Addr().String(),
		Members:     8,
		Duration:    2 * time.Second,
		Seed:        2,
		Churn:       workload.PaperDefault().Compressed(200),
		MinStay:     200 * time.Millisecond,
		JoinTimeout: 5 * time.Second,
	})
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Eight slots racing a 1-token bucket: most first attempts defer, and
	// every deferral must be retried into admission, not an error.
	if rep.JoinsDeferred == 0 {
		t.Fatal("expected admission deferrals under a tight join rate")
	}
	if rep.Joins == 0 {
		t.Fatal("no slot was ever admitted")
	}
	if rep.ProtocolErrors != 0 {
		t.Fatalf("deferrals must not count as protocol errors: %d (%v)", rep.ProtocolErrors, rep.ErrorSamples)
	}
}

// startRegistry brings up an in-process multi-group host: one OneTree per
// group behind a single listener, with a fast fleet-wide rekey ticker.
func startRegistry(t *testing.T, groups int, period time.Duration) *server.Registry {
	t.Helper()
	reg := server.NewRegistry()
	for g := 0; g < groups; g++ {
		scheme, err := core.NewOneTree(
			core.WithRand(keycrypt.NewDeterministicReader(uint64(1000+g))),
			core.WithKeyIDBase(store.GroupKeyIDBase(wire.GroupID(g))),
		)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(wire.GroupID(g), server.New(scheme, nil)); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	reg.Serve(ln)
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				reg.RekeyAllNow()
			}
		}
	}()
	t.Cleanup(func() {
		close(stop)
		reg.Close()
	})
	return reg
}

// TestSoakSixtyFourGroups is the multi-group acceptance soak: one host,
// 64 independent groups, slots spread round-robin, zero protocol errors.
func TestSoakSixtyFourGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const groups = 64
	reg := startRegistry(t, groups, 50*time.Millisecond)
	r := New(Config{
		Addr:        reg.Addr().String(),
		Members:     2 * groups,
		Groups:      groups,
		Duration:    3 * time.Second,
		Seed:        64,
		Churn:       workload.PaperDefault().Compressed(500),
		MinStay:     100 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
	})
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Groups != groups {
		t.Fatalf("report says %d groups, want %d", rep.Groups, groups)
	}
	if rep.ProtocolErrors != 0 {
		t.Fatalf("protocol errors across %d groups: %d (%v)", groups, rep.ProtocolErrors, rep.ErrorSamples)
	}
	if rep.Joins < uint64(2*groups) {
		t.Fatalf("expected every slot to join at least once, got %d joins", rep.Joins)
	}
	if rep.RekeysSeen == 0 {
		t.Fatal("no rekeys observed across the fleet")
	}
	// Every group must actually have been exercised: with two slots per
	// group and round-robin placement, each hosted server saw admissions.
	idle := 0
	for g := 0; g < groups; g++ {
		if reg.Get(wire.GroupID(g)).Epoch() == 0 {
			idle++
		}
	}
	if idle > 0 {
		t.Fatalf("%d of %d groups never rekeyed", idle, groups)
	}
}

// TestResumeSurvivesServerDown: a slot's first resume attempt hits an
// address with no server behind it. The saved session is kept, the slot
// backs off, and a later attempt resumes it as the same member; the
// transport failure is counted apart from a server's refusal, which drops
// the state and joins afresh.
func TestResumeSurvivesServerDown(t *testing.T) {
	// No rekey runs unless the test asks: one would evict the member
	// whose connection closed.
	s := startServer(t, nil, time.Hour)
	dialed := make(chan *server.Client, 1)
	go func() {
		c, err := server.Dial(s.Addr().String(), wire.JoinRequest{}, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	var c *server.Client
	for c == nil {
		select {
		case c = <-dialed:
			if c == nil {
				t.FailNow()
			}
		case <-time.After(20 * time.Millisecond):
			s.RekeyNow() // admits the join once it has landed
		}
	}
	id := c.ID()
	blob, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r := New(Config{Addrs: []string{down, s.Addr().String()}, Members: 1, Resume: true, JoinTimeout: 5 * time.Second})
	state := blob
	rc := r.connect(ctx, rand.New(rand.NewPCG(1, 1)), 0, 0, &state)
	if rc == nil {
		t.Fatal("connect gave up")
	}
	defer rc.Close()
	if rc.ID() != id || state != nil {
		t.Fatalf("connected as member %d (saved %d), state kept: %v", rc.ID(), id, state != nil)
	}
	rep := r.col.report(r.cfg, time.Second)
	if rep.Resumes != 1 || rep.ResumeFailures != 1 || rep.ResumeRejected != 0 || rep.Joins != 0 {
		t.Fatalf("resumes %d, failures %d, rejected %d, joins %d; want 1, 1, 0, 0",
			rep.Resumes, rep.ResumeFailures, rep.ResumeRejected, rep.Joins)
	}

	// The member is connected, so the server refuses a second resume of
	// the same state: the slot drops it and joins as a new member, admitted
	// at a rekey.
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-stopped
	}()
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
				s.RekeyNow()
			}
		}
	}()
	r2 := New(Config{Addrs: []string{s.Addr().String()}, Members: 1, Resume: true, JoinTimeout: 5 * time.Second})
	state = blob
	jc := r2.connect(ctx, rand.New(rand.NewPCG(1, 2)), 0, 0, &state)
	if jc == nil {
		t.Fatal("connect gave up")
	}
	defer jc.Close()
	rep = r2.col.report(r2.cfg, time.Second)
	if jc.ID() == id || rep.ResumeRejected != 1 || rep.ResumeFailures != 0 || rep.Joins != 1 {
		t.Fatalf("member %d (saved %d): rejected %d, failures %d, joins %d; want a new member, 1, 0, 1",
			jc.ID(), id, rep.ResumeRejected, rep.ResumeFailures, rep.Joins)
	}
}
