package server

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupkey/internal/clock"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
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
	// The welcome and the admitting rekey are held for the client, queued
	// or in the stalled writer's hand (the pipe is unread): depth counts
	// both, so the arithmetic below does not depend on where they sit.
	depth := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, cc := range s.conns {
			n += int(cc.depth.Load())
		}
		return n
	}
	if got := depth(); got != 2 {
		t.Fatalf("depth=%d after admission, want 2 (welcome + rekey)", got)
	}
	// Stack rekeys up to the queue cap: at and above the high watermark
	// they are still accepted, and none overflows.
	for i := 0; i < 2; i++ {
		if _, err := s.RekeyNow(); err != nil {
			t.Fatalf("rekey %d: %v", i, err)
		}
	}
	if got := depth(); got != 4 {
		t.Fatalf("depth=%d after stacking rekeys, want 4 (QueueCap)", got)
	}
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

// sealedEpoch seals a one-leave epoch of a 64-member group and returns
// it with the largest slice of it any member needs; the caller owns the
// buffer's reference.
func sealedEpoch(t *testing.T) (*epochBuffer, []uint32, ed25519.PrivateKey) {
	t.Helper()
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
	var idx []uint32
	for p := range sc.Members() {
		if cand := eb.index.At(p); len(cand) > len(idx) {
			idx = cand
		}
	}
	if len(idx) == 0 {
		t.Fatal("no member has sparse indexes")
	}
	return eb, idx, priv
}

// TestSparseWriterAllocsCeiling pins the steady-state allocation cost of
// the writer hot path. A batch's headers, sparse heads and vector list
// live in reused scratch, so a sparse frame costs only the multiproof
// walk's scratch slice and payload (data) frames nothing — alone or
// coalesced into one write.
func TestSparseWriterAllocsCeiling(t *testing.T) {
	eb, idx, priv := sealedEpoch(t)
	defer eb.release()
	sparse := frame{t: wire.MsgRekeySparse, eb: eb, idx: idx}
	data := frame{t: wire.MsgData, payload: wire.SignRekey(priv, []byte("sealed application frame"))}
	b := new(batch)
	for _, tc := range []struct {
		name   string
		frames []frame
		max    float64
	}{
		{"sparse", []frame{sparse}, 2}, // proof-walk scratch only
		{"data", []frame{data}, 0},
		{"sparse+4 data", []frame{sparse, data, data, data, data}, 2},
		{"4 data", []frame{data, data, data, data}, 0},
	} {
		b.frames = tc.frames
		// Warm the scratch once, then demand steady state.
		if err := b.writeTo(discardConn{}); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := b.writeTo(discardConn{}); err != nil {
				t.Fatal(err)
			}
		}); allocs > tc.max {
			t.Errorf("%s batch: allocs/op = %v, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}

// gatedConn records what a writer sends. A Write whose 1-based number is
// in hold blocks, announcing itself on held, until release hands it its
// result. net.Buffers falls back to one Write per buffer on a conn that is
// not a socket, so the writer's vectored writes are counted by its
// SetWriteDeadline calls, one per write.
type gatedConn struct {
	discardConn
	hold    map[int]bool
	held    chan int
	release chan error

	mu        sync.Mutex
	out       bytes.Buffer
	writes    int
	deadlines int
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	c.mu.Unlock()
	if c.hold[n] {
		c.held <- n
		if err := <-c.release; err != nil {
			return 0, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *gatedConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines++
	return nil
}

// TestWriterCoalescesQueuedFrames checks that a writer sends everything
// queued when it wakes in one vectored write, byte-identical to writing
// the frames one at a time, and that every frame it took or left queued
// is released — after a failed write too.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	eb, idx, priv := sealedEpoch(t)
	defer eb.release()
	welcome := frame{t: wire.MsgWelcome, payload: []byte("welcome")}
	rest := []frame{{t: wire.MsgRekeySparse, eb: eb, idx: idx}}
	for i := 0; i < 4; i++ {
		rest = append(rest, frame{t: wire.MsgData, payload: wire.SignRekey(priv, []byte(fmt.Sprintf("data %d", i)))})
	}

	// start runs a writer over conn for member 1 of a fresh server.
	start := func(t *testing.T, conn *gatedConn) (*Server, *clientConn, *Metrics) {
		s := New(newScheme(t, 42), nil)
		m := NewMetrics(metrics.NewRegistry(), nil)
		s.Instrument(m)
		s.mu.Lock()
		cc := s.startClientLocked(conn)
		s.conns[1] = cc
		s.mu.Unlock()
		return s, cc, m
	}
	enqueue := func(t *testing.T, s *Server, cc *clientConn, fs ...frame) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, f := range fs {
			if f.eb != nil {
				f.eb.retain()
			}
			if !s.enqueueLocked(1, cc, f) {
				t.Fatalf("%v frame not queued", f.t)
			}
		}
	}
	newConn := func(hold ...int) *gatedConn {
		c := &gatedConn{hold: map[int]bool{}, held: make(chan int), release: make(chan error)}
		for _, n := range hold {
			c.hold[n] = true
		}
		return c
	}

	t.Run("coalesced", func(t *testing.T) {
		conn := newConn(1)
		s, cc, m := start(t, conn)
		defer s.Close()
		// The writer wakes for the welcome alone and stalls in its first
		// Write; the five frames queued meanwhile must go out together.
		enqueue(t, s, cc, welcome)
		<-conn.held
		enqueue(t, s, cc, rest...)
		conn.release <- nil
		waitFor(t, "batches written", func() bool { return s.QueuedFrames() == 0 })

		conn.mu.Lock()
		writes, stream := conn.deadlines, conn.out.Bytes()
		conn.mu.Unlock()
		if writes != 2 {
			t.Errorf("vectored writes = %d, want 2 (welcome, then the 5 frames queued behind it)", writes)
		}
		if c, sum := m.sendqWrites.Count(), m.sendqWrites.Sum(); c != 2 || sum != 6 {
			t.Errorf("frames_per_write count=%d sum=%v, want 2 and 6", c, sum)
		}
		r := bytes.NewReader(stream)
		for i, f := range append([]frame{welcome}, rest...) {
			want := f.payload
			if f.eb != nil {
				want = eb.appendSparseFrame(nil, f.idx)
			}
			typ, got, err := wire.ReadFrame(r)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if typ != f.t || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: got %v (%d bytes), want %v (%d bytes), byte-identical", i, typ, len(got), f.t, len(want))
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d bytes after the last frame", r.Len())
		}
		if refs := eb.refs.Load(); refs != 1 {
			t.Fatalf("epoch buffer refs = %d after the writes, want 1 (the test's own)", refs)
		}
	})

	t.Run("write fails mid-batch", func(t *testing.T) {
		// Write 1 is the welcome's header; writes 3 and 4 are the second
		// batch's first two buffers, so failing write 4 cuts the sparse
		// frame off after its head.
		conn := newConn(1, 4)
		s, cc, m := start(t, conn)
		enqueue(t, s, cc, welcome)
		<-conn.held
		enqueue(t, s, cc, rest...)
		conn.release <- nil
		<-conn.held
		// Two more frames queue behind the failing batch.
		enqueue(t, s, cc, rest[1], rest[2])
		conn.release <- errors.New("connection reset")
		// The read side would notice the dead connection and drop the
		// member; Close does the same here and waits for the writer.
		s.Close()
		if got := s.QueuedFrames(); got != 0 {
			t.Fatalf("QueuedFrames = %d after a failed write, want 0", got)
		}
		if got := cc.depth.Load(); got != 0 {
			t.Fatalf("client depth = %d after a failed write, want 0", got)
		}
		if refs := eb.refs.Load(); refs != 1 {
			t.Fatalf("epoch buffer refs = %d after a failed write, want 1 (the test's own)", refs)
		}
		if c := m.sendqWrites.Count(); c != 1 {
			t.Fatalf("frames_per_write count = %d, want 1 (the failed write is not counted)", c)
		}
	})
}
