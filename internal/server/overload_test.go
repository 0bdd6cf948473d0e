package server

import (
	"crypto/ed25519"
	"errors"
	"groupkey/internal/clock"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// pipeJoin starts a server-side handler on one end of a pipe and submits a
// join on the other, returning the client end. The caller drives RekeyNow
// to admit; the pipe has no buffering, so an unread client end stalls the
// server's writer deterministically.
func pipeJoin(t *testing.T, s *Server) net.Conn {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	go s.handle(srvEnd)
	t.Cleanup(func() { cliEnd.Close() })
	cliEnd.SetWriteDeadline(time.Now().Add(testTimeout))
	if err := wire.WriteFrame(cliEnd, wire.MsgJoin, wire.JoinRequest{LossRate: -1}.Encode()); err != nil {
		t.Fatalf("sending join: %v", err)
	}
	return cliEnd
}

// waitFor polls until cond holds or the timeout elapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitPendingJoins waits until n joins sit in the pending batch.
func waitPendingJoins(t *testing.T, s *Server, n int) {
	t.Helper()
	waitFor(t, "pending joins", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pendingJoins) == n
	})
}

// TestSlowClientOverflowEviction drives the full slow-consumer path: a
// member that never reads fills its bounded send queue, overflows it
// EvictAfter times in a row, and is evicted — while the server never
// blocks longer than one frame write.
func TestSlowClientOverflowEviction(t *testing.T) {
	s := New(newScheme(t, 7), nil)
	s.SetOverloadPolicy(OverloadPolicy{
		QueueCap:      4,
		HighWatermark: 3,
		LowWatermark:  1,
		EvictAfter:    2,
		// Long enough that the stalled first write never times out during
		// the test: eviction must come from queue overflow, not I/O error.
		WriteTimeout: time.Minute,
	})
	t.Cleanup(func() { s.Close() })

	pipeJoin(t, s)
	waitPendingJoins(t, s, 1)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("admitting rekey: %v", err)
	}
	if s.Size() != 1 {
		t.Fatalf("Size=%d after admission, want 1", s.Size())
	}

	// Each rekey enqueues one frame the stalled writer never drains; the
	// 4-frame queue must fill and then overflow twice within a few rounds.
	for i := 0; i < 20 && s.SlowEvictions() == 0; i++ {
		if _, err := s.RekeyNow(); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
	}
	if got := s.SlowEvictions(); got != 1 {
		t.Fatalf("SlowEvictions=%d, want 1", got)
	}
	s.mu.Lock()
	nconns := len(s.conns)
	s.mu.Unlock()
	if nconns != 0 {
		t.Fatalf("evicted client still in conns (%d)", nconns)
	}

	// The eviction is a queued leave: the next rekey removes the member.
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("eviction rekey: %v", err)
	}
	if s.Size() != 0 {
		t.Fatalf("Size=%d after eviction rekey, want 0", s.Size())
	}
	// The writer's shutdown drain returns every discarded frame to the
	// depth accounting.
	waitFor(t, "send queue drain", func() bool { return s.QueuedFrames() == 0 })
}

// TestCongestedClientShedsDataKeepsRekeys checks the watermark tier:
// above HighWatermark a client loses data frames (counted) but keeps
// receiving rekeys, and sheds carry no eviction strikes.
func TestCongestedClientShedsDataKeepsRekeys(t *testing.T) {
	s := New(newScheme(t, 8), nil)
	s.SetOverloadPolicy(OverloadPolicy{
		QueueCap:      4,
		HighWatermark: 2,
		LowWatermark:  1,
		EvictAfter:    3,
		WriteTimeout:  time.Minute,
	})
	t.Cleanup(func() { s.Close() })

	pipeJoin(t, s)
	waitPendingJoins(t, s, 1)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("admitting rekey: %v", err)
	}
	// Let the writer park on the welcome frame (pipe unread) so the queue
	// arithmetic below is deterministic: one frame in flight, one queued.
	queueLen := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, cc := range s.conns {
			n += len(cc.q)
		}
		return n
	}
	waitFor(t, "writer to park", func() bool { return queueLen() == 1 })
	// Stack rekeys past the high watermark (the stalled writer holds one
	// frame in flight, so the queue depth only grows).
	for i := 0; i < 3; i++ {
		if _, err := s.RekeyNow(); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
	}
	waitFor(t, "queue above high watermark", func() bool {
		return queueLen() >= 2
	})
	if err := s.Broadcast([]byte("shed me")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if got := s.ShedFrames(); got != 1 {
		t.Fatalf("ShedFrames=%d, want 1", got)
	}
	if got := s.SlowEvictions(); got != 0 {
		t.Fatalf("SlowEvictions=%d after shed, want 0 (sheds are not strikes)", got)
	}
	s.mu.Lock()
	var strikes int
	for _, cc := range s.conns {
		strikes += cc.strikes
	}
	s.mu.Unlock()
	if strikes != 0 {
		t.Fatalf("shed carried %d strikes, want 0", strikes)
	}
}

// TestWatermarkRecoveryResetsStrikes exercises overflow → drain →
// recovery: a client earns strikes while stalled, catches up, and the
// next enqueue below the low watermark forgives them.
func TestWatermarkRecoveryResetsStrikes(t *testing.T) {
	s := New(newScheme(t, 9), nil)
	s.SetOverloadPolicy(OverloadPolicy{
		QueueCap:      4,
		HighWatermark: 3,
		LowWatermark:  1,
		EvictAfter:    10, // out of reach: this test must not evict
		WriteTimeout:  time.Minute,
	})
	t.Cleanup(func() { s.Close() })

	cliEnd := pipeJoin(t, s)
	waitPendingJoins(t, s, 1)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("admitting rekey: %v", err)
	}

	// Overflow at least once while the client end stays unread.
	strikesSeen := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, cc := range s.conns {
			n += cc.strikes
		}
		return n
	}
	for i := 0; i < 20 && strikesSeen() == 0; i++ {
		if _, err := s.RekeyNow(); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
	}
	if strikesSeen() == 0 {
		t.Fatal("queue never overflowed")
	}

	// The client recovers: drain every queued frame.
	drained := make(chan struct{})
	rekeys := 0
	go func() {
		defer close(drained)
		cliEnd.SetReadDeadline(time.Now().Add(testTimeout))
		for {
			typ, _, err := wire.ReadFrame(cliEnd)
			if err != nil {
				return
			}
			if typ == wire.MsgRekeySparse {
				rekeys++
			}
			if s.QueuedFrames() == 0 {
				return
			}
		}
	}()
	<-drained
	if rekeys == 0 {
		t.Fatal("recovered client read no rekey frames")
	}
	waitFor(t, "queue drain", func() bool { return s.QueuedFrames() == 0 })

	// The next enqueue lands below the low watermark and resets strikes.
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("recovery rekey: %v", err)
	}
	if got := strikesSeen(); got != 0 {
		t.Fatalf("strikes=%d after recovery, want 0", got)
	}
	if got := s.SlowEvictions(); got != 0 {
		t.Fatalf("SlowEvictions=%d, want 0", got)
	}
}

// TestJoinAdmissionRateLimit checks the token bucket: the burst is
// admitted, the next join is deferred with a retry-after hint, and tokens
// refill on the injected clock.
func TestJoinAdmissionRateLimit(t *testing.T) {
	s := New(newScheme(t, 10), nil)
	s.SetOverloadPolicy(OverloadPolicy{
		JoinRate:   1,
		JoinBurst:  1,
		RetryFloor: 100 * time.Millisecond,
	})
	now := time.Unix(1000, 0)
	s.clock = clock.NowFunc(func() time.Time { return now })
	t.Cleanup(func() { s.Close() })

	first := pipeJoin(t, s)
	// Drain the first client so its writer never stalls the test.
	go func() {
		for {
			if _, _, err := wire.ReadFrame(first); err != nil {
				return
			}
		}
	}()
	waitFor(t, "first join pending", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pendingJoins) == 1
	})

	// Token spent: the second join must be deferred with a hint of about
	// one second (time to the next token), not admitted and not dropped.
	second := pipeJoin(t, s)
	second.SetReadDeadline(time.Now().Add(testTimeout))
	typ, payload, err := wire.ReadFrame(second)
	if err != nil {
		t.Fatalf("reading deferral: %v", err)
	}
	if typ != wire.MsgRetry {
		t.Fatalf("second join got %v, want retry", typ)
	}
	after, err := wire.DecodeRetryAfter(payload)
	if err != nil {
		t.Fatalf("DecodeRetryAfter: %v", err)
	}
	if after < 100*time.Millisecond || after > 2*time.Second {
		t.Fatalf("retry-after=%v, want ~1s", after)
	}
	if got := s.JoinsDeferred(); got != 1 {
		t.Fatalf("JoinsDeferred=%d, want 1", got)
	}

	// Advance the clock one second: the bucket holds a token again and the
	// same connection's retry is admitted.
	now = now.Add(time.Second)
	second.SetWriteDeadline(time.Now().Add(testTimeout))
	if err := wire.WriteFrame(second, wire.MsgJoin, wire.JoinRequest{LossRate: -1}.Encode()); err != nil {
		t.Fatalf("retrying join: %v", err)
	}
	waitFor(t, "second join pending", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pendingJoins) == 2
	})
}

// TestJoinBacklogCapDefers checks the pending-join backlog valve.
func TestJoinBacklogCapDefers(t *testing.T) {
	s := New(newScheme(t, 11), nil)
	s.SetOverloadPolicy(OverloadPolicy{
		MaxPendingJoins: 1,
		RetryFloor:      50 * time.Millisecond,
	})
	t.Cleanup(func() { s.Close() })

	first := pipeJoin(t, s)
	go func() {
		for {
			if _, _, err := wire.ReadFrame(first); err != nil {
				return
			}
		}
	}()
	waitFor(t, "first join pending", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pendingJoins) == 1
	})

	second := pipeJoin(t, s)
	second.SetReadDeadline(time.Now().Add(testTimeout))
	typ, _, err := wire.ReadFrame(second)
	if err != nil {
		t.Fatalf("reading deferral: %v", err)
	}
	if typ != wire.MsgRetry {
		t.Fatalf("backlogged join got %v, want retry", typ)
	}

	// The rekey drains the backlog; the retried join is then admitted.
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("RekeyNow: %v", err)
	}
	second.SetWriteDeadline(time.Now().Add(testTimeout))
	if err := wire.WriteFrame(second, wire.MsgJoin, wire.JoinRequest{LossRate: -1}.Encode()); err != nil {
		t.Fatalf("retrying join: %v", err)
	}
	waitFor(t, "retried join pending", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pendingJoins) == 1
	})
}

// TestDialSurfacesDeferral checks the client library path over real TCP:
// Dial against a server out of admission tokens returns a DeferredError
// carrying the hint, and a retry after the hint succeeds.
func TestDialSurfacesDeferral(t *testing.T) {
	scheme := newScheme(t, 12)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := New(scheme, nil)
	s.SetOverloadPolicy(OverloadPolicy{
		JoinRate:   0.5,
		JoinBurst:  1,
		RetryFloor: 20 * time.Millisecond,
	})
	// Virtual clock so the token bucket only refills when the test says so.
	var clockNS atomic.Int64
	s.clock = clock.NowFunc(func() time.Time { return time.Unix(0, clockNS.Load()) })
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })

	// Burn the single token.
	first := dial(t, s, wire.JoinRequest{LossRate: -1})
	defer first.Close()

	_, err = Dial(s.Addr().String(), wire.JoinRequest{LossRate: -1}, testTimeout)
	var def *DeferredError
	if !errors.As(err, &def) {
		t.Fatalf("Dial under admission load: err=%v, want DeferredError", err)
	}
	if def.After < 20*time.Millisecond {
		t.Fatalf("DeferredError.After=%v, want ≥ retry floor", def.After)
	}

	// Honouring the hint works: once the bucket has refilled, the retry is
	// admitted at the next rekey.
	clockNS.Add(int64(def.After) + int64(time.Second))
	second := dial(t, s, wire.JoinRequest{LossRate: -1})
	defer second.Close()
	if second.ID() == 0 {
		t.Fatal("retried join got no member ID")
	}
}

// TestStalledTCPClientEventuallyEvicted is the end-to-end TCP version: a
// raw socket that joins and never reads must not take the group down — a
// healthy member keeps rekeying and the stalled one is eventually removed
// by overflow eviction or write timeout.
func TestStalledTCPClientEventuallyEvicted(t *testing.T) {
	scheme := newScheme(t, 13)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	s := New(scheme, nil)
	s.SetOverloadPolicy(OverloadPolicy{
		QueueCap:      8,
		HighWatermark: 6,
		LowWatermark:  2,
		EvictAfter:    2,
		WriteTimeout:  200 * time.Millisecond,
	})
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })

	healthy := dial(t, s, wire.JoinRequest{LossRate: -1})
	defer healthy.Close()

	stalled, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("Dial raw: %v", err)
	}
	defer stalled.Close()
	if err := wire.WriteFrame(stalled, wire.MsgJoin, wire.JoinRequest{LossRate: -1}.Encode()); err != nil {
		t.Fatalf("raw join: %v", err)
	}
	waitPendingJoins(t, s, 1)
	if _, err := s.RekeyNow(); err != nil {
		t.Fatalf("admitting rekey: %v", err)
	}
	if s.Size() != 2 {
		t.Fatalf("Size=%d after admission, want 2", s.Size())
	}

	// Pump frames: big payloads fill the stalled socket's kernel buffer,
	// then the bounded queue, then either the strike counter or the write
	// timeout removes it. The pacing keeps the healthy reader comfortably
	// ahead so only the stalled one accumulates pressure.
	big := make([]byte, 64<<10)
	deadline := time.Now().Add(testTimeout)
	for s.Size() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never evicted")
		}
		_ = s.Broadcast(big)
		if _, err := s.RekeyNow(); err != nil {
			t.Fatalf("RekeyNow: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The healthy member saw every epoch the server reached.
	if err := healthy.WaitEpoch(s.TotalRekeys(), testTimeout); err != nil {
		t.Fatalf("healthy member fell behind: %v", err)
	}
}

// discardConn is a no-op net.Conn: writes vanish and deadlines are free.
// net.Pipe would allocate a timer per deadline call, polluting the
// allocation ceiling below.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return nil }
func (discardConn) RemoteAddr() net.Addr             { return nil }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// TestSparseWriterAllocsCeiling pins the steady-state allocation cost of
// the writer hot path. The frame header, sparse-head buffer and vector
// list are writer-owned and reused, so a sparse frame costs only the
// multiproof walk's scratch slice and a payload (data) frame nothing.
func TestSparseWriterAllocsCeiling(t *testing.T) {
	sc := newScheme(t, 40)
	var b core.Batch
	for i := 1; i <= 64; i++ {
		b.Joins = append(b.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: 0.01}})
	}
	if _, err := sc.ProcessBatch(b); err != nil {
		t.Fatal(err)
	}
	rekey, err := sc.ProcessBatch(core.Batch{Leaves: []keytree.MemberID{7}})
	if err != nil {
		t.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(41))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := newEpochBuffer(priv, rekey, sc.Members(), sc.PathIDs)
	if err != nil {
		t.Fatal(err)
	}
	defer eb.release()
	var idx []uint32
	for p := range sc.Members() {
		if cand := eb.index.At(p); len(cand) > len(idx) {
			idx = cand
		}
	}
	if len(idx) == 0 {
		t.Fatal("no member has sparse indexes")
	}

	cc := &clientConn{conn: discardConn{}}
	sparse := frame{t: wire.MsgRekeySparse, eb: eb, idx: idx}
	// Warm the writer-owned buffers once, then demand steady state.
	if err := cc.writeFrame(sparse); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := cc.writeFrame(sparse); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("sparse writeFrame allocs/op = %v, want ≤ 2 (proof-walk scratch only)", allocs)
	}
	data := frame{t: wire.MsgData, payload: wire.SignRekey(priv, []byte("sealed application frame"))}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := cc.writeFrame(data); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Fatalf("payload writeFrame allocs/op = %v, want 0", allocs)
	}
}
