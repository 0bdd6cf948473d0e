package server

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// Overload hardening: every admitted member gets a bounded send queue
// drained by its own writer goroutine, so one stalled TCP peer can never
// wedge a rekey broadcast or silently starve behind a shared write lock.
//
// The policy has three tiers, in order of increasing pressure:
//
//  1. Above HighWatermark the client is marked shedding and loses MsgData
//     frames (the recoverable traffic) while rekeys keep flowing; shedding
//     clears once the queue drains to LowWatermark.
//  2. A full queue is an overflow: the frame is dropped (counted, never
//     silent) and the client earns a strike.
//  3. EvictAfter consecutive strikes — with no drain to LowWatermark in
//     between — evict the client: close its connection and queue it for
//     removal at the next rekey, exactly as if it had disconnected.
//
// Join admission is a separate valve: a token bucket (JoinRate/JoinBurst)
// plus a pending-join backlog cap defer surplus joins with a MsgRetry
// carrying a retry-after hint, so committed members keep rekeying while
// new joins wait their turn instead of piling onto the batch.

// OverloadPolicy bounds the server's per-client queues and join admission.
// The zero value of any field selects its default.
type OverloadPolicy struct {
	// QueueCap bounds the frames held for one client, in frames: queued,
	// or taken by its writer and not yet written.
	QueueCap int
	// HighWatermark is the queue depth at which MsgData frames are shed.
	HighWatermark int
	// LowWatermark is the depth the queue must drain to before shedding
	// stops and overflow strikes reset.
	LowWatermark int
	// EvictAfter is how many consecutive overflows (without a drain to
	// LowWatermark in between) evict the client.
	EvictAfter int
	// WriteTimeout bounds each vectored write on a client connection.
	WriteTimeout time.Duration
	// JoinRate is the sustained join admission rate in joins/second
	// (0 = unlimited).
	JoinRate float64
	// JoinBurst is the token-bucket depth for join admission (defaults to
	// max(1, JoinRate)).
	JoinBurst int
	// MaxPendingJoins caps the join backlog awaiting the next rekey
	// (0 = unlimited); surplus joins are deferred with MsgRetry.
	MaxPendingJoins int
	// RetryFloor is the minimum retry-after hint sent with MsgRetry.
	RetryFloor time.Duration
}

// DefaultOverloadPolicy returns the production defaults: a 256-frame queue
// shedding data above 192, recovering at 64, eviction after 3 overflows,
// and unlimited join admission.
func DefaultOverloadPolicy() OverloadPolicy {
	return OverloadPolicy{
		QueueCap:      256,
		HighWatermark: 192,
		LowWatermark:  64,
		EvictAfter:    3,
		WriteTimeout:  writeTimeout,
		RetryFloor:    time.Second,
	}
}

// withDefaults fills zero fields and repairs inconsistent watermarks.
func (p OverloadPolicy) withDefaults() OverloadPolicy {
	def := DefaultOverloadPolicy()
	if p.QueueCap <= 0 {
		p.QueueCap = def.QueueCap
	}
	if p.HighWatermark <= 0 || p.HighWatermark > p.QueueCap {
		p.HighWatermark = p.QueueCap * 3 / 4
		if p.HighWatermark < 1 {
			p.HighWatermark = 1
		}
	}
	if p.LowWatermark <= 0 || p.LowWatermark >= p.HighWatermark {
		p.LowWatermark = p.HighWatermark / 4
	}
	if p.EvictAfter <= 0 {
		p.EvictAfter = def.EvictAfter
	}
	if p.WriteTimeout <= 0 {
		p.WriteTimeout = def.WriteTimeout
	}
	if p.JoinBurst <= 0 {
		p.JoinBurst = int(p.JoinRate)
		if p.JoinBurst < 1 {
			p.JoinBurst = 1
		}
	}
	if p.RetryFloor <= 0 {
		p.RetryFloor = def.RetryFloor
	}
	return p
}

// SetOverloadPolicy replaces the overload policy. Call before Serve;
// queues created afterwards use the new bounds, existing queues keep
// theirs.
func (s *Server) SetOverloadPolicy(p OverloadPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p.withDefaults()
}

// frame is one queued outbound message: either a self-contained payload
// (t + payload) or an epoch-buffer descriptor (t + eb + idx), from which
// the writer assembles the member's sparse frame outside the server lock.
// A frame holding eb owns one reference; the writer releases it once the
// frame is written or discarded.
type frame struct {
	t       wire.MsgType
	payload []byte
	eb      *epochBuffer
	idx     []uint32
}

// release drops the epoch-buffer reference a descriptor frame owns.
func (f frame) release() {
	if f.eb != nil {
		f.eb.release()
	}
}

// clientConn is one admitted member's connection plus its bounded send
// queue. The queue channel is closed exactly once (finish) after the conn
// leaves s.conns, so enqueues — always under s.mu — never race the close.
// strikes and shedding are guarded by s.mu.
type clientConn struct {
	conn    net.Conn
	q       chan frame
	done    chan struct{}
	qOnce   sync.Once
	abOnce  sync.Once
	timeout time.Duration
	metrics *Metrics // snapshot at creation; nil-safe

	// depth counts the frames held for this client: queued in q, or taken
	// by the writer and not yet written. It never falls below len(q).
	depth atomic.Int64

	strikes  int
	shedding bool
}

// startClientLocked wraps an admitted connection in a send queue and
// starts its writer. Callers hold s.mu.
func (s *Server) startClientLocked(conn net.Conn) *clientConn {
	cc := &clientConn{
		conn:    conn,
		q:       make(chan frame, s.policy.QueueCap),
		done:    make(chan struct{}),
		timeout: s.policy.WriteTimeout,
		metrics: s.metrics,
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.writeLoop(cc)
	}()
	return cc
}

// finish closes the queue: the writer drains what is already queued, then
// closes the connection. Call only after removing cc from s.conns (no
// further enqueues), in every removal path — the writer's final drain
// blocks on it.
func (cc *clientConn) finish() {
	cc.qOnce.Do(func() { close(cc.q) })
}

// abort tears the connection down without draining: any in-flight write is
// unblocked by the conn close and queued frames are discarded.
func (cc *clientConn) abort() {
	cc.abOnce.Do(func() { close(cc.done) })
	cc.conn.Close()
}

// writeLoop drains one client's queue: each time it wakes for a frame, it
// also takes every frame already queued behind it and sends them all in
// one vectored write. It exits on a write error, on abort, or once the
// queue is closed and drained; in every case it closes the connection,
// discards (with depth accounting) whatever remains queued, and releases
// the epoch buffers those frames held.
func (s *Server) writeLoop(cc *clientConn) {
	defer func() {
		cc.conn.Close()
		// The owner always finishes the queue when it drops the conn, so
		// this drain terminates; it keeps the depth gauge honest for
		// frames that were queued but never written.
		for f := range cc.q {
			f.release()
			s.sendqAdd(cc, -1)
		}
	}()
	for {
		var f frame
		var ok bool
		select {
		case <-cc.done:
			return
		case f, ok = <-cc.q:
			if !ok {
				return
			}
		}
		b := batchPool.Get().(*batch)
		b.frames = append(b.frames[:0], f)
		// This goroutine is q's only receiver, so these receives never block.
		for n := len(cc.q); n > 0; n-- {
			b.frames = append(b.frames, <-cc.q)
		}
		cc.conn.SetWriteDeadline(time.Now().Add(cc.timeout))
		err := b.writeTo(cc.conn)
		if err == nil {
			cc.metrics.noteWrite(len(b.frames))
		}
		for _, f := range b.frames {
			f.release()
		}
		s.sendqAdd(cc, -int64(len(b.frames)))
		// The pool must not pin payloads or recycled epoch buffers.
		clear(b.frames)
		clear(b.bufs)
		batchPool.Put(b)
		if err != nil {
			return
		}
	}
}

// batch is one writer wake-up's frames plus the scratch that lays them out
// as a single vectored write. It is borrowed from batchPool for one write,
// so an idle connection holds no buffers.
type batch struct {
	frames []frame
	heads  []byte // each frame's header, a sparse frame's head after it
	ends   []int  // end of each frame's header (and head) in heads
	bufs   net.Buffers
	// io is the slice WriteTo consumes — a field rather than a local so
	// escape analysis never heap-allocates it per write.
	io net.Buffers
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// writeTo sends b.frames, in order, in one WriteTo: a payload frame as
// header + payload, a sparse descriptor as header + head (fixed fields,
// indexes, multiproof — assembled here, off the server lock) + its items
// as coalesced ranges over the epoch's shared buffer.
func (b *batch) writeTo(conn net.Conn) error {
	b.heads, b.ends = b.heads[:0], b.ends[:0]
	for _, f := range b.frames {
		start := len(b.heads)
		b.heads = append(b.heads, 0, 0, 0, 0, byte(f.t))
		n := len(f.payload)
		if f.eb != nil {
			b.heads = wire.AppendSparseHead(b.heads, f.eb.epoch, f.eb.tree, f.eb.root, f.eb.rootSig, f.idx)
			n = len(b.heads) - start - 5 + len(f.idx)*wire.RekeyItemSize
		}
		binary.BigEndian.PutUint32(b.heads[start:], uint32(n+1))
		b.ends = append(b.ends, len(b.heads))
	}
	// Slice heads only now: the appends above may have moved it.
	b.bufs = b.bufs[:0]
	start := 0
	for i, f := range b.frames {
		b.bufs = append(b.bufs, b.heads[start:b.ends[i]])
		start = b.ends[i]
		if f.eb != nil {
			b.bufs = f.eb.itemRanges(b.bufs, f.idx)
		} else {
			b.bufs = append(b.bufs, f.payload)
		}
	}
	// WriteTo advances the slice it is called on; operate on a copy so
	// b.bufs keeps its backing array for the next write.
	b.io = b.bufs
	_, err := b.io.WriteTo(conn)
	return err
}

// sendqAdd tracks queued-frame counts: the client's depth (read by the
// overload policy), the server total (tests and shutdown summary) and the
// gauge (scrapes). Safe without s.mu.
func (s *Server) sendqAdd(cc *clientConn, delta int64) {
	cc.depth.Add(delta)
	s.sendqDepth.Add(delta)
	cc.metrics.addSendqDepth(float64(delta))
}

// enqueueLocked queues one frame for a client, applying the watermark and
// eviction policy to the frames held for it, the writer's batch included.
// It reports whether the frame was queued; on the EvictAfter-th
// consecutive overflow the client is evicted inline (removed from s.conns
// — safe during a map range). A dropped frame's epoch-buffer reference is
// released here. Callers hold s.mu.
func (s *Server) enqueueLocked(id keytree.MemberID, cc *clientConn, f frame) bool {
	depth := int(cc.depth.Load())
	if depth <= s.policy.LowWatermark {
		// Watermark recovery: the writer caught up, forgive the past.
		cc.shedding = false
		cc.strikes = 0
	}
	if f.t == wire.MsgData && (cc.shedding || depth >= s.policy.HighWatermark) {
		// Congested: shed replaceable data traffic, keep rekeys flowing.
		cc.shedding = true
		s.shedFrames++
		s.metrics.noteShed()
		return false
	}
	if depth < cap(cc.q) {
		// len(q) ≤ depth and every sender holds s.mu: the send cannot block.
		cc.q <- f
		s.sendqAdd(cc, 1)
		return true
	}
	f.release()
	cc.strikes++
	s.overflows++
	s.metrics.noteOverflow()
	if cc.strikes >= s.policy.EvictAfter {
		s.evictSlowLocked(id, cc)
	}
	return false
}

// evictSlowLocked removes a client that kept overflowing its queue: the
// connection is torn down and the member is queued for eviction at the
// next rekey, exactly like a disconnect. Callers hold s.mu.
func (s *Server) evictSlowLocked(id keytree.MemberID, cc *clientConn) {
	delete(s.conns, id)
	if s.scheme.Contains(id) {
		s.pendingLeaves[id] = true
	}
	s.slowEvictions++
	s.metrics.noteSlowEviction()
	s.metrics.setConnections(len(s.conns))
	cc.finish()
	cc.abort()
}

// admitJoinLocked decides whether one join may enter the pending batch. A
// denial returns the retry-after hint for the MsgRetry response. Callers
// hold s.mu.
func (s *Server) admitJoinLocked() (time.Duration, bool) {
	p := &s.policy
	if p.MaxPendingJoins > 0 && len(s.pendingJoins) >= p.MaxPendingJoins {
		// Backlog-bound shedding: the batch is full; the next rekey
		// drains it, so the floor is the right order of wait.
		return p.RetryFloor, false
	}
	if p.JoinRate <= 0 {
		return 0, true
	}
	now := s.now()
	if s.joinLast.IsZero() {
		s.joinTokens = float64(p.JoinBurst)
	} else {
		s.joinTokens += now.Sub(s.joinLast).Seconds() * p.JoinRate
		if max := float64(p.JoinBurst); s.joinTokens > max {
			s.joinTokens = max
		}
	}
	s.joinLast = now
	if s.joinTokens >= 1 {
		s.joinTokens--
		return 0, true
	}
	wait := time.Duration((1 - s.joinTokens) / p.JoinRate * float64(time.Second))
	if wait < p.RetryFloor {
		wait = p.RetryFloor
	}
	return wait, false
}

// SlowEvictions reports how many clients were evicted for overflowing
// their send queues.
func (s *Server) SlowEvictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slowEvictions
}

// JoinsDeferred reports how many joins were deferred with MsgRetry.
func (s *Server) JoinsDeferred() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joinsDeferred
}

// ShedFrames reports how many data frames were shed to congested clients.
func (s *Server) ShedFrames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shedFrames
}

// QueuedFrames reports the aggregate send-queue depth across clients.
func (s *Server) QueuedFrames() int64 { return s.sendqDepth.Load() }
