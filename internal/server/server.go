// Package server runs a group key server over real TCP connections: members
// join and leave over the wire protocol (internal/wire), the server batches
// membership changes and rekeys periodically (or on demand) using any
// key-management scheme from internal/core, and application data is
// multicast sealed under the current group key.
//
// The fan-out is TCP unicast to every member — the forwarding plane is not
// what the paper measures; rekey payload sizes are, and those are identical
// to what an IP-multicast deployment would send.
package server

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/adaptive"
	"groupkey/internal/clock"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// Server errors.
var (
	ErrClosed = errors.New("server: closed")
	// ErrFenced rejects a state mutation attempted after this server's node
	// lost the lease on the group's shard: a deposed primary must never
	// journal or emit another rekey, or its WAL diverges from the new
	// primary's timeline.
	ErrFenced = errors.New("server: fenced")
)

// Fence gates every state-mutating operation on cluster leadership. Check
// is called under the server lock immediately before an operation is
// journaled; returning an error aborts the operation before any state —
// durable or in-memory — changes. Implemented by the cluster layer
// (lease-epoch fencing); standalone servers have no fence.
type Fence interface {
	Check() error
}

// Persister is the durability hook the server drives (implemented by
// store.Store; the interface lives here so the server does not import the
// store). The contract is journal-before-apply: the server calls
// JournalBatch/JournalRotate first, then mutates the scheme, then
// broadcasts — so a crash at any instant can be replayed to the exact
// pre-crash key material.
type Persister interface {
	// JournalBatch journals one membership batch (empty heartbeats
	// included) and reseeds the scheme's entropy source.
	JournalBatch(b core.Batch) error
	// JournalRotate journals one scheduled rotation.
	JournalRotate() error
	// SaveSnapshot persists the scheme state and compacts the journal.
	SaveSnapshot(sc core.Scheme, nextID keytree.MemberID) error
}

// writeTimeout bounds per-frame writes so a stalled client cannot wedge a
// rekey broadcast.
const writeTimeout = 5 * time.Second

// Server is the group key server daemon. Create with New, start with
// Serve, stop with Close.
type Server struct {
	scheme core.Scheme
	rng    io.Reader
	// group is the wire-level group this server hosts: every frame it reads
	// must address it, every frame it writes carries it. Standalone servers
	// keep group 0; a Registry assigns it at Add time. Fixed before Serve,
	// read lock-free.
	group wire.GroupID
	// signing keypair: every rekey and data frame is Ed25519-signed so
	// members can authenticate the key server (group members share the
	// data key, so GCM alone cannot provide source authentication).
	signPriv ed25519.PrivateKey
	signPub  ed25519.PublicKey

	mu            sync.Mutex
	ln            net.Listener
	conns         map[keytree.MemberID]*clientConn
	pendingJoins  []pendingJoin
	pendingLeaves map[keytree.MemberID]bool
	nextID        keytree.MemberID
	closed        bool

	// Overload hardening (see sendq.go). policy is fixed before Serve;
	// joinTokens/joinLast implement the join-admission token bucket; the
	// lifetime counters back the accessors and shutdown summary whether or
	// not metrics are attached.
	policy        OverloadPolicy
	joinTokens    float64
	joinLast      time.Time
	sendqDepth    atomic.Int64
	slowEvictions uint64
	joinsDeferred uint64
	shedFrames    uint64
	overflows     uint64

	wg     sync.WaitGroup
	stopCh chan struct{}

	// Section 3.4 churn observation (see advise.go).
	joinedAt  map[keytree.MemberID]time.Time
	estimator *adaptive.Estimator
	clock     clock.Clock // nil = wall clock; tests and the simulator inject

	// Observability (see metrics.go). metrics may be nil; the lifetime
	// counters are kept regardless for the shutdown summary.
	metrics     *Metrics
	totalRekeys uint64
	peakMembers int

	// Durability (see Persist).
	persister     Persister
	snapshotEvery int
	opsSinceSnap  int

	// Datagram rekey plane (see udp.go); nil unless ServeUDP was called.
	udp *udpPlane

	// fence gates mutations on cluster leadership; nil when standalone.
	fence Fence
}

type pendingJoin struct {
	id   keytree.MemberID
	meta core.MemberMeta
	conn net.Conn
}

// New creates a server around a key-management scheme. rng supplies nonces
// for data sealing and the signing keypair; nil means crypto/rand.
func New(scheme core.Scheme, rng io.Reader) *Server {
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		// Only reachable with a broken injected reader; the system source
		// never fails.
		panic(fmt.Sprintf("server: generating signing key: %v", err))
	}
	return NewWithKey(scheme, rng, priv)
}

// NewWithKey creates a server with an externally owned signing key — a
// durable server keeps the key in its state directory so resumed members'
// pinned server key stays valid across restarts.
func NewWithKey(scheme core.Scheme, rng io.Reader, priv ed25519.PrivateKey) *Server {
	return &Server{
		scheme:        scheme,
		rng:           rng,
		signPriv:      priv,
		signPub:       priv.Public().(ed25519.PublicKey),
		conns:         make(map[keytree.MemberID]*clientConn),
		pendingLeaves: make(map[keytree.MemberID]bool),
		nextID:        1,
		policy:        DefaultOverloadPolicy(),
		stopCh:        make(chan struct{}),
	}
}

// Persist attaches the durability hook: every batch and rotation is
// journaled before it is applied, and a snapshot is saved every
// snapshotEvery journaled operations (0 = only on Close).
func (s *Server) Persist(p Persister, snapshotEvery int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persister = p
	s.snapshotEvery = snapshotEvery
}

// SetNextID overrides the next member ID to assign; recovery calls this
// so restarted servers never reissue an ID a previous life handed out.
func (s *Server) SetNextID(id keytree.MemberID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id > s.nextID {
		s.nextID = id
	}
}

// SigningKey returns the server's Ed25519 public key (also delivered in
// every welcome).
func (s *Server) SigningKey() ed25519.PublicKey { return s.signPub }

// SetFence attaches the leadership gate. Call before Serve.
func (s *Server) SetFence(f Fence) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fence = f
}

// checkFenceLocked rejects a mutation once leadership is lost. Callers
// hold s.mu and must not have journaled or mutated anything yet.
func (s *Server) checkFenceLocked() error {
	if s.fence == nil {
		return nil
	}
	if err := s.fence.Check(); err != nil {
		return fmt.Errorf("%w: %v", ErrFenced, err)
	}
	return nil
}

// BootstrapState runs fn under the server lock with a consistent view of
// the mutable state replication must ship: the live scheme and the next
// assignable member ID. No journaled-but-unapplied operation can be in
// flight while fn runs, so a snapshot taken inside fn pairs exactly with
// the store's LastSeq read inside the same fn.
func (s *Server) BootstrapState(fn func(sc core.Scheme, nextID keytree.MemberID) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return fn(s.scheme, s.nextID)
}

// Serve starts accepting connections on ln. It returns immediately; the
// accept loop runs until Close.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(conn)
			}()
		}
	}()
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Group returns the wire-level group this server hosts (0 unless a
// Registry assigned another).
func (s *Server) Group() wire.GroupID { return s.group }

// handle serves one client connection's read side.
func (s *Server) handle(conn net.Conn) {
	s.handleFrames(conn, 0, nil)
}

// handleFrames serves one client connection's read side. A Registry that
// already consumed the connection's first frame to route it passes that
// frame in (firstType nonzero); standalone servers read everything
// themselves. Incoming frames addressed to any other group are protocol
// errors.
func (s *Server) handleFrames(conn net.Conn, firstType wire.MsgType, firstPayload []byte) {
	var memberID keytree.MemberID
	defer func() {
		s.mu.Lock()
		if memberID != 0 {
			if cc, ok := s.conns[memberID]; ok {
				delete(s.conns, memberID)
				cc.finish()
				s.metrics.setConnections(len(s.conns))
				if s.scheme.Contains(memberID) {
					s.pendingLeaves[memberID] = true
				}
			} else {
				// Vanished before the admitting rekey: withdraw the join.
				for i, pj := range s.pendingJoins {
					if pj.id == memberID {
						s.pendingJoins = append(s.pendingJoins[:i], s.pendingJoins[i+1:]...)
						break
					}
				}
			}
		}
		s.mu.Unlock()
		conn.Close()
	}()

	for first := true; ; first = false {
		var t wire.MsgType
		var payload []byte
		if first && firstType != 0 {
			t, payload = firstType, firstPayload
		} else {
			g, rt, rp, err := wire.ReadFrameGroup(conn)
			if err != nil {
				return
			}
			if g != s.group {
				// Cross-group frames never reach another group's scheme: the
				// connection is bound to one group for its lifetime.
				s.reject(conn, fmt.Errorf("frame addressed to group %d on a group %d connection", g, s.group))
				return
			}
			t, payload = rt, rp
		}
		s.metrics.noteFrame(t)
		switch t {
		case wire.MsgJoin:
			req, err := wire.DecodeJoinRequest(payload)
			if err != nil {
				s.reject(conn, err)
				return
			}
			s.mu.Lock()
			if s.closed || memberID != 0 {
				s.mu.Unlock()
				s.reject(conn, errors.New("join rejected"))
				return
			}
			if wait, ok := s.admitJoinLocked(); !ok {
				// Load shedding: defer the join, keep the connection — the
				// client retries on it after the hinted backoff while
				// committed members keep rekeying undisturbed.
				s.joinsDeferred++
				s.metrics.noteJoinDeferred()
				s.mu.Unlock()
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				if err := wire.WriteFrameGroup(conn, s.group, wire.MsgRetry, wire.EncodeRetryAfter(wait)); err != nil {
					return
				}
				continue
			}
			memberID = s.nextID
			s.nextID++
			s.pendingJoins = append(s.pendingJoins, pendingJoin{
				id:   memberID,
				meta: core.MemberMeta{LossRate: req.LossRate, LongLived: req.LongLived},
				conn: conn,
			})
			s.mu.Unlock()
		case wire.MsgLeave:
			s.mu.Lock()
			if memberID != 0 && s.scheme.Contains(memberID) {
				s.pendingLeaves[memberID] = true
			}
			s.mu.Unlock()
		case wire.MsgResume:
			req, err := wire.DecodeResumeRequest(payload)
			if err != nil {
				s.reject(conn, err)
				return
			}
			if !s.resume(conn, req, &memberID) {
				return
			}
		case wire.MsgRekeyPull:
			// TCP repair: a member that could not complete an epoch from the
			// datagram plane (or missed a sparse frame) pulls, and whatever
			// epoch it names it is sent its current key path, as resume is.
			// One reply per epoch: it is signed under s.mu, and a member
			// pulling in a loop must not stall rekeys for everyone.
			if _, err := wire.DecodeRekeyPull(payload); err != nil {
				s.reject(conn, err)
				return
			}
			s.mu.Lock()
			cc := s.conns[memberID]
			if memberID == 0 || cc == nil {
				s.mu.Unlock()
				s.reject(conn, errors.New("pull rejected: not a member"))
				return
			}
			s.metrics.noteRepairPull()
			epoch := s.scheme.Stats().Rekeys
			if cc.pathSent && cc.pathEpoch == epoch {
				s.mu.Unlock()
				continue
			}
			f, err := s.pathFrameLocked(memberID)
			if err == nil {
				cc.pathSent, cc.pathEpoch = true, epoch
				s.enqueueLocked(memberID, cc, f)
			}
			s.mu.Unlock()
			if err != nil {
				s.reject(conn, err)
				return
			}
		default:
			s.reject(conn, fmt.Errorf("unexpected %v from client", t))
			return
		}
	}
}

// resumeProof is the plaintext of a resume proof, built by the resuming
// client and checked here: the member ID, big-endian.
func resumeProof(m keytree.MemberID) []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(m))
}

// resume re-attaches a member that survived a server restart (or its own).
// The proof is the member's ID sealed under its current individual key —
// only the genuine member (and the server) holds that key, so a valid
// proof authenticates without a whole-group rekey. On success the server
// re-sends the signed welcome (re-pinning the server key) and the member's
// current key path (pathFrameLocked), in one write. However many epochs
// the member missed, the path takes it to the group key, and it is derived
// from the scheme this process holds, so an epoch that was journaled but
// never broadcast before a crash reaches the member too. A member keeps
// its individual key for life, across S→L and scheme migration alike, so
// a proof that does not open is a forgery or a stale copy of the state:
// it is rejected ("resume rejected: bad proof", counted in the
// rejected-registrations metric). Like MsgWelcome, the reply carries the
// individual key in the clear and so rides the same
// confidential-registration-channel assumption (use TLS).
func (s *Server) resume(conn net.Conn, req wire.ResumeRequest, memberID *keytree.MemberID) bool {
	s.mu.Lock()
	if s.closed || *memberID != 0 || !s.scheme.Contains(req.Member) {
		s.mu.Unlock()
		s.reject(conn, errors.New("resume rejected"))
		return false
	}
	if _, dup := s.conns[req.Member]; dup {
		s.mu.Unlock()
		s.reject(conn, errors.New("resume rejected: member already connected"))
		return false
	}
	keys, err := s.scheme.MemberKeys(req.Member)
	if err != nil || len(keys) == 0 {
		s.mu.Unlock()
		s.reject(conn, errors.New("resume rejected"))
		return false
	}
	leaf := keys[0]
	pt, err := keycrypt.Open(leaf, req.Proof)
	if err != nil || !bytes.Equal(pt, resumeProof(req.Member)) {
		s.mu.Unlock()
		s.reject(conn, errors.New("resume rejected: bad proof"))
		return false
	}
	path, err := s.pathFrameLocked(req.Member)
	if err != nil {
		s.mu.Unlock()
		s.reject(conn, err)
		return false
	}
	*memberID = req.Member
	// A disconnect queued this member for eviction; reconnecting revokes it.
	delete(s.pendingLeaves, req.Member)
	welcome := wire.SignedWelcome{
		Welcome:   wire.Welcome{Member: req.Member, Key: leaf},
		ServerKey: s.signPub,
	}
	cc := s.startClientLocked(req.Member, conn, frame{t: wire.MsgWelcome, payload: welcome.Encode()}, path)
	cc.pathSent, cc.pathEpoch = true, s.scheme.Stats().Rekeys
	s.metrics.setConnections(len(s.conns))
	s.mu.Unlock()
	return true
}

// pathFrameLocked seals member m's current key path (core.PathItems) as
// a one-member epoch buffer at the scheme's current epoch — one root, one
// signature — and returns its sparse frame, which owns the buffer's only
// reference. It is the reply to a resume and to every pull: depth wraps
// and one signature, no scheme state changed, so a restarted process that
// has sealed no epoch yet answers too. A path overrides the versions a
// member holds (member.ApplyPath), so a deposed primary issues none.
// Callers hold s.mu.
func (s *Server) pathFrameLocked(m keytree.MemberID) (frame, error) {
	if err := s.checkFenceLocked(); err != nil {
		return frame{}, err
	}
	items, err := core.PathItems(s.scheme, m, s.rng)
	if err != nil {
		return frame{}, err
	}
	rekey := &core.Rekey{Epoch: s.scheme.Stats().Rekeys, Streams: []core.Stream{{Items: items}}}
	eb, err := newEpochBuffer(s.signPriv, rekey, []keytree.MemberID{m}, s.scheme.PathIDs)
	if err != nil {
		return frame{}, err
	}
	return frame{t: wire.MsgRekeySparse, eb: eb, idx: eb.index.At(0)}, nil
}

func (s *Server) reject(conn net.Conn, err error) {
	s.mu.Lock()
	s.metrics.noteRejected()
	s.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_ = wire.WriteFrameGroup(conn, s.group, wire.MsgError, []byte(err.Error()))
}

// RekeyNow processes all pending joins and leaves as one batch, sends
// welcomes to joiners, broadcasts the rekey payload to every connected
// member and disconnects leavers. It returns the rekey (possibly empty).
func (s *Server) RekeyNow() (*core.Rekey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.checkFenceLocked(); err != nil {
		return nil, err
	}

	start := s.now()
	b := core.Batch{}
	joinConn := make(map[keytree.MemberID]net.Conn)
	for _, pj := range s.pendingJoins {
		if s.pendingLeaves[pj.id] {
			// Joined and disconnected within one period: never admitted.
			delete(s.pendingLeaves, pj.id)
			continue
		}
		b.Joins = append(b.Joins, core.Join{ID: pj.id, Meta: pj.meta})
		joinConn[pj.id] = pj.conn
	}
	for m := range s.pendingLeaves {
		b.Leaves = append(b.Leaves, m)
	}

	// Journal before apply: if the append fails the pending lists are
	// intact and nothing has mutated, so the operator can retry; if it
	// succeeds, recovery can replay the batch under its journaled seed
	// even though this process may die on the very next instruction.
	if s.persister != nil {
		if err := s.persister.JournalBatch(b); err != nil {
			return nil, fmt.Errorf("server: journaling batch: %w", err)
		}
	}
	s.pendingJoins = nil
	s.pendingLeaves = make(map[keytree.MemberID]bool)

	rekey, err := s.scheme.ProcessBatch(b)
	if err != nil {
		return nil, fmt.Errorf("server: rekey batch: %w", err)
	}

	// Feed the Section 3.4 churn estimator.
	for _, j := range b.Joins {
		s.observeJoin(j.ID)
	}
	for _, m := range b.Leaves {
		s.observeLeave(m)
	}

	// Welcome joiners over their registration connections, including the
	// signing public key they will verify all future frames against. A
	// joiner that vanished mid-registration fails asynchronously: its
	// writer tears the conn down and the read side queues the eviction.
	// The welcome is written while the epoch is sealed: holding it for
	// the joiner's first rekey measured no faster (EXPERIMENTS.md E18).
	for id, conn := range joinConn {
		welcome := wire.SignedWelcome{
			Welcome:   wire.Welcome{Member: id, Key: rekey.Welcome[id]},
			ServerKey: s.signPub,
		}
		s.startClientLocked(id, conn, frame{t: wire.MsgWelcome, payload: welcome.Encode()})
	}

	// Broadcast the rekey payload. Empty payloads still go out: the
	// epoch announcement doubles as the rekey-interval heartbeat members
	// use to detect missed rekeys.
	sent, err := s.broadcastRekeyLocked(rekey)
	if err != nil {
		return nil, err
	}

	// Disconnect leavers gracefully: the queue drains (their final rekey
	// frame included, as under the old synchronous write) and the writer
	// then closes the connection.
	for _, m := range b.Leaves {
		if cc, ok := s.conns[m]; ok {
			delete(s.conns, m)
			cc.finish()
		}
	}
	s.noteRekeyLocked(rekey, len(b.Joins), len(b.Leaves), sent, s.since(start))
	if err := s.maybeSnapshotLocked(); err != nil {
		return rekey, err
	}
	return rekey, nil
}

// maybeSnapshotLocked saves a snapshot once snapshotEvery journaled
// operations have accumulated. Callers hold s.mu.
func (s *Server) maybeSnapshotLocked() error {
	if s.persister == nil || s.snapshotEvery <= 0 {
		return nil
	}
	s.opsSinceSnap++
	if s.opsSinceSnap < s.snapshotEvery {
		return nil
	}
	if err := s.persister.SaveSnapshot(s.scheme, s.nextID); err != nil {
		return fmt.Errorf("server: saving snapshot: %w", err)
	}
	s.opsSinceSnap = 0
	return nil
}

// noteRekeyLocked updates the lifetime counters and (if instrumented) the
// exported metrics after one rekey. Callers hold s.mu.
func (s *Server) noteRekeyLocked(rekey *core.Rekey, joins, leaves, bytes int, d time.Duration) {
	s.totalRekeys++
	if n := s.scheme.Size(); n > s.peakMembers {
		s.peakMembers = n
	}
	s.metrics.noteRekey(s.scheme, rekey, joins, leaves, bytes, d, s.now())
	s.metrics.setConnections(len(s.conns))
}

// broadcastRekeyLocked seals one rekey payload into an epoch buffer —
// items encoded once, Merkle root signed once — and fans out per-client
// descriptors: datagram subscribers get a digest while their keys travel
// over UDP, every other client gets {epoch buffer, its indexes} (its
// writer assembles an O(log N)-item sparse frame off this lock). The
// connected IDs are sorted once: they scope the epoch's index and order
// the fan-out, so each client's indexes are read by position. Returns the
// payload bytes accepted for delivery. A client whose queue keeps
// overflowing is evicted inline (enqueueLocked); a client whose transport
// fails is cleaned up by its writer and read side. Callers hold s.mu.
func (s *Server) broadcastRekeyLocked(rekey *core.Rekey) (int, error) {
	ids := s.sortedConnIDsLocked()
	eb, err := newEpochBuffer(s.signPriv, rekey, ids, s.scheme.PathIDs)
	if err != nil {
		return 0, err
	}
	// The initial reference is dropped once every frame holds its own: the
	// buffer is freed when the last frame and the UDP transmit are done.
	defer eb.release()

	// Hand the epoch to the datagram plane first: subscribers' keys go out
	// as FEC-coded UDP packets, so their TCP frame shrinks to a digest.
	overUDP := s.udp.planEpoch(s, eb, ids)

	sent := 0
	for pos, id := range ids {
		cc := s.conns[id]
		idx := eb.index.At(pos)
		if _, ok := overUDP[id]; ok {
			digest := s.udp.digestFor(eb, id)
			if s.enqueueLocked(id, cc, frame{t: wire.MsgRekeyDigest, payload: digest}) {
				sent += len(digest)
			}
			continue
		}
		eb.retain()
		if s.enqueueLocked(id, cc, frame{t: wire.MsgRekeySparse, eb: eb, idx: idx}) {
			n := eb.sparseSize(idx)
			sent += n
			s.metrics.noteSparseBytes(n)
		}
	}
	return sent, nil
}

// RotateNow refreshes the group key without membership changes (scheduled
// rotation) and broadcasts the one-item payload. It fails when the scheme
// does not implement core.Rotator or the group is empty.
func (s *Server) RotateNow() (*core.Rekey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.checkFenceLocked(); err != nil {
		return nil, err
	}
	rot, ok := s.scheme.(core.Rotator)
	if !ok {
		return nil, fmt.Errorf("server: scheme %s cannot rotate", s.scheme.Name())
	}
	start := s.now()
	if s.persister != nil {
		if err := s.persister.JournalRotate(); err != nil {
			return nil, fmt.Errorf("server: journaling rotation: %w", err)
		}
	}
	rekey, err := rot.Rotate()
	if err != nil {
		return nil, err
	}
	sent, err := s.broadcastRekeyLocked(rekey)
	if err != nil {
		return nil, err
	}
	s.noteRekeyLocked(rekey, 0, 0, sent, s.since(start))
	if err := s.maybeSnapshotLocked(); err != nil {
		return rekey, err
	}
	return rekey, nil
}

// StartPeriodic rekeys every interval until Close — the periodic batched
// rekeying mode of Kronos/Yang et al. (Section 2.1.1).
func (s *Server) StartPeriodic(interval time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ticker := clock.Or(s.clock).NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-ticker.C():
				if _, err := s.RekeyNow(); err != nil && !errors.Is(err, ErrClosed) {
					return
				}
			}
		}
	}()
}

// Broadcast seals data under the current group key and sends it to every
// connected member.
func (s *Server) Broadcast(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	dek, err := s.scheme.GroupKey()
	if err != nil {
		return err
	}
	sealed, err := keycrypt.Seal(dek, data, s.rng)
	if err != nil {
		return err
	}
	// Sign the sealed frame: group members share the data key, so only the
	// signature distinguishes the server from another member. Congested
	// clients (above the high watermark) are shed, not waited for.
	blob := wire.SignRekey(s.signPriv, sealed)
	sent := 0
	for _, id := range s.sortedConnIDsLocked() {
		if s.enqueueLocked(id, s.conns[id], frame{t: wire.MsgData, payload: blob}) {
			sent += len(blob)
		}
	}
	s.metrics.noteBroadcast(sent)
	s.metrics.setConnections(len(s.conns))
	return nil
}

// sortedConnIDsLocked returns the connected member IDs in ascending
// order, so broadcast fan-out visits connections deterministically
// instead of in Go's randomized map order.
func (s *Server) sortedConnIDsLocked() []keytree.MemberID {
	ids := make([]keytree.MemberID, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Size returns the current admitted group size.
func (s *Server) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheme.Size()
}

// Epoch returns the number of rekeys (batches and rotations) the hosted
// scheme has processed — the key epoch members observe on the wire.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scheme.Stats().Rekeys
}

// Close stops the server: the listener and every connection are closed and
// background goroutines joined. With a persister attached, a final
// snapshot is saved first so a graceful shutdown restarts with zero WAL
// replay.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var snapErr error
	if s.persister != nil {
		snapErr = s.persister.SaveSnapshot(s.scheme, s.nextID)
	}
	s.closed = true
	close(s.stopCh)
	if s.ln != nil {
		s.ln.Close()
	}
	s.udp.close()
	for _, cc := range s.conns {
		cc.abort()
	}
	s.conns = make(map[keytree.MemberID]*clientConn)
	// Joins still waiting for their admitting rekey have no writer to tear
	// them down; their read sides would hold wg.Wait until the peer hung up.
	for _, pj := range s.pendingJoins {
		pj.conn.Close()
	}
	s.metrics.setConnections(0)
	s.metrics.setMembers(0) // a demoted cluster primary no longer serves the group
	s.mu.Unlock()
	s.wg.Wait()
	return snapErr
}
