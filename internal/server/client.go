package server

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
	"groupkey/internal/wire"
)

// Client errors.
var (
	ErrJoinTimeout = errors.New("server: join not acknowledged in time")
	ErrNotWelcomed = errors.New("server: client not yet admitted")
)

// DeferredError reports a join the server deferred under admission load
// (MsgRetry): not a failure of the protocol, just "come back later".
// Callers should wait After and dial again; errors.As unwraps it from the
// error Dial returns.
type DeferredError struct {
	After time.Duration
}

// Error implements error.
func (e *DeferredError) Error() string {
	return fmt.Sprintf("server: join deferred, retry after %v", e.After)
}

// Client is a group member speaking the wire protocol. Create with Dial.
type Client struct {
	conn net.Conn
	// group is the hosted group this session belongs to; fixed at dial (or
	// restored from saved state), so read without c.mu. Nonzero groups make
	// every client→server frame group-addressed.
	group wire.GroupID

	mu        sync.Mutex
	mem       *member.Member
	id        keytree.MemberID
	serverKey ed25519.PublicKey
	// dgram is the optional UDP rekey subscription (see client_udp.go).
	dgram *dgramPlane
	// indiv is the member's current individual (leaf) key, tracked across
	// rekeys for session resumption (see resume.go).
	indiv  keycrypt.Key
	joined bool
	epoch  uint64
	// joinEpoch is the epoch of the rekey that admitted this member (set
	// on the first applied rekey, or from the saved state on resume). It
	// gates migration detection: the join payload's key chain is wrapped
	// under the member's own leaf and must not be read as a hand-off.
	joinEpoch uint64

	welcomed chan struct{}
	epochCh  chan struct{} // closed and replaced on every rekey
	readErr  error
	done     chan struct{}

	data          chan []byte
	dataDropped   int
	undecryptable int
	badSignatures int

	// epochHook, when set, is invoked from the read loop (without c.mu)
	// after every applied rekey — the load generator's latency probe.
	epochHook func(epoch uint64)
}

// Dial connects to a key server, requests to join the default group (0)
// with the given metadata, and waits (up to timeout) for admission — which
// happens at the server's next rekey.
func Dial(addr string, req wire.JoinRequest, timeout time.Duration) (*Client, error) {
	return DialGroup(addr, 0, req, timeout)
}

// DialGroup connects to a multi-group key server and joins the addressed
// group. Group 0 joins are sent with the legacy header, so old servers
// keep admitting new clients. Cluster redirects (the dialed node does not
// own the group) are followed transparently.
func DialGroup(addr string, group wire.GroupID, req wire.JoinRequest, timeout time.Duration) (*Client, error) {
	return DialGroupVia(addr, group, req, timeout, nil)
}

// DialGroupVia is DialGroup with an address rewrite applied to every
// cluster redirect target before re-dialing — for members that reach the
// cluster through per-region proxies, where a redirect names a node's real
// address but the member must dial that node's proxy front. A nil rewrite
// is the identity.
func DialGroupVia(addr string, group wire.GroupID, req wire.JoinRequest, timeout time.Duration, rewrite func(string) string) (*Client, error) {
	return followRedirectsVia(addr, rewrite, func(addr string) (*Client, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
		}
		return newClientOnConn(conn, group, req, timeout)
	})
}

// newClientOnConn completes the join handshake over an established
// connection (plain TCP or TLS).
func newClientOnConn(conn net.Conn, group wire.GroupID, req wire.JoinRequest, timeout time.Duration) (*Client, error) {
	c := &Client{
		conn:     conn,
		group:    group,
		welcomed: make(chan struct{}),
		epochCh:  make(chan struct{}),
		done:     make(chan struct{}),
		data:     make(chan []byte, 64),
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := c.writeFrame(wire.MsgJoin, req.Encode()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: sending join: %w", err)
	}
	go c.readLoop()

	select {
	case <-c.welcomed:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("server: connection closed before welcome: %w", c.err())
	case <-time.After(timeout):
		conn.Close()
		return nil, ErrJoinTimeout
	}
}

// writeFrame sends one client→server frame, group-addressed when the
// session belongs to a nonzero group and legacy-framed otherwise.
func (c *Client) writeFrame(t wire.MsgType, payload []byte) error {
	if c.group != 0 {
		return wire.WriteFrameGroup(c.conn, c.group, t, payload)
	}
	return wire.WriteFrame(c.conn, t, payload)
}

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		t, payload, err := wire.ReadFrame(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			c.mu.Unlock()
			return
		}
		switch t {
		case wire.MsgWelcome:
			w, err := wire.DecodeSignedWelcome(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if !c.joined {
				if c.mem == nil {
					// Fresh join: adopt identity and pin the server key.
					c.id = w.Member
					c.mem = member.New(w.Member, w.Key)
					c.serverKey = w.ServerKey
				} else if !c.serverKey.Equal(ed25519.PublicKey(w.ServerKey)) {
					// Resume ack from a server that does not hold our pinned
					// key: refuse to talk to it.
					c.mu.Unlock()
					c.fail(errors.New("server: resume welcome signed by unknown server key"))
					return
				}
				c.indiv = w.Key
				c.joined = true
				close(c.welcomed)
			}
			c.mu.Unlock()
		case wire.MsgRekeySparse:
			sr, err := wire.DecodeSparseRekey(c.ServerKey(), payload)
			if err != nil {
				if errors.Is(err, wire.ErrBadSignature) {
					// Forged or corrupted: never apply; count and drop.
					c.mu.Lock()
					c.badSignatures++
					c.mu.Unlock()
					continue
				}
				c.fail(err)
				return
			}
			c.applyRekey(sr.Epoch, sr.Items)
		case wire.MsgRekeyDigest:
			dg, err := wire.DecodeRekeyDigest(c.ServerKey(), payload)
			if err != nil {
				if errors.Is(err, wire.ErrBadSignature) {
					c.mu.Lock()
					c.badSignatures++
					c.mu.Unlock()
					continue
				}
				c.fail(err)
				return
			}
			c.handleDigest(dg)
		case wire.MsgData:
			c.mu.Lock()
			inner, err := wire.OpenSignedRekey(c.serverKey, payload)
			if err != nil {
				c.badSignatures++
				c.mu.Unlock()
				continue
			}
			pt, err := c.tryOpenLocked(inner)
			if err != nil {
				c.undecryptable++
				c.mu.Unlock()
				continue
			}
			c.mu.Unlock()
			select {
			case c.data <- pt:
			default:
				// Slow consumer: drop rather than wedge the read loop —
				// counted, so the drop is visible (DroppedData).
				c.mu.Lock()
				c.dataDropped++
				c.mu.Unlock()
			}
		case wire.MsgRetry:
			after, err := wire.DecodeRetryAfter(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			joined := c.joined
			c.mu.Unlock()
			if !joined {
				// Admission deferred: surface the hint to the dialer and
				// hang up (the caller owns the backoff-and-retry loop).
				c.fail(&DeferredError{After: after})
				return
			}
		case wire.MsgRedirect:
			// This node does not own the group (cluster failover moved it, or
			// we dialed a follower). Surface the owner to the dial helpers,
			// which re-dial; mid-session it still terminates the connection —
			// the member resumes against the named owner.
			addr, epoch, err := wire.DecodeRedirect(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.fail(&RedirectError{Addr: addr, Epoch: epoch})
			return
		case wire.MsgError:
			c.fail(fmt.Errorf("server rejected: %s", payload))
			return
		}
	}
}

// applyRekey folds one authenticated rekey payload — sparse or
// reconstructed from datagrams — into the key store and announces the
// epoch. Every delivery plane converges here, so secrecy bookkeeping
// (hand-off tracking, epoch gating) is identical no matter how the keys
// arrived.
func (c *Client) applyRekey(epoch uint64, items []keytree.Item) {
	c.mu.Lock()
	if c.mem != nil {
		c.mem.Apply(items)
		if c.joinEpoch == 0 {
			c.joinEpoch = epoch
		}
		// A leaf hand-off can only arrive in a rekey newer than both
		// our join and everything already processed (the resume ack
		// re-delivers the last rekey verbatim).
		c.trackIndividualLocked(items, epoch > c.epoch && epoch > c.joinEpoch)
	}
	if epoch > c.epoch {
		c.epoch = epoch
	}
	old := c.epochCh
	c.epochCh = make(chan struct{})
	close(old)
	hook := c.epochHook
	c.mu.Unlock()
	if hook != nil {
		hook(epoch)
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	c.readErr = err
	c.mu.Unlock()
	c.conn.Close()
}

func (c *Client) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

// ID returns the member ID assigned by the server.
func (c *Client) ID() keytree.MemberID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.id
}

// Epoch returns the latest rekey epoch the client has processed.
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// WaitEpoch blocks until the client has processed a rekey with epoch ≥ min
// or the timeout elapses.
func (c *Client) WaitEpoch(min uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.epoch >= min {
			c.mu.Unlock()
			return nil
		}
		ch := c.epochCh
		c.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("server: epoch %d not reached in time (at %d)", min, c.Epoch())
		}
		select {
		case <-ch:
		case <-c.done:
			return fmt.Errorf("server: connection closed waiting for epoch %d: %w", min, c.err())
		case <-time.After(remaining):
			return fmt.Errorf("server: epoch %d not reached in time (at %d)", min, c.Epoch())
		}
	}
}

// SetEpochHook registers fn to be called from the read loop after every
// applied rekey. Set it right after Dial returns (rekeys already processed
// are visible via Epoch); pass nil to clear.
func (c *Client) SetEpochHook(fn func(epoch uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochHook = fn
}

// Data returns the stream of successfully decrypted application messages.
func (c *Client) Data() <-chan []byte { return c.data }

// Done is closed when the connection's read loop exits — the session is
// over, whether by Close, server eviction, or a transport failure.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the terminal read-loop error, nil while the session is live.
func (c *Client) Err() error { return c.err() }

// DroppedData reports how many decrypted data messages were discarded
// because the Data channel was full (slow local consumer).
func (c *Client) DroppedData() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dataDropped
}

// Undecryptable reports how many data messages arrived that the client
// could not decrypt (evidence of correct forward secrecy when observed on
// departed members).
func (c *Client) Undecryptable() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.undecryptable
}

// BadSignatures reports how many frames failed server-signature
// verification and were discarded.
func (c *Client) BadSignatures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.badSignatures
}

// ServerKey returns the server's signing public key learned at welcome.
func (c *Client) ServerKey() ed25519.PublicKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.serverKey
}

// TryOpen attempts to decrypt a sealed blob with the client's current keys.
func (c *Client) TryOpen(blob []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tryOpenLocked(blob)
}

func (c *Client) tryOpenLocked(blob []byte) ([]byte, error) {
	if c.mem == nil {
		return nil, ErrNotWelcomed
	}
	id, ver, err := keycrypt.SealedKeyInfo(blob)
	if err != nil {
		return nil, err
	}
	k, ok := c.mem.Key(id)
	if !ok || k.Version != ver {
		return nil, keycrypt.ErrAuthFailure
	}
	return keycrypt.Open(k, blob)
}

// HasKey reports whether the client holds exactly the given key — used by
// tests to verify key agreement with the server.
func (c *Client) HasKey(k keycrypt.Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem != nil && c.mem.Has(k)
}

// Leave asks the server to evict this member at its next rekey.
func (c *Client) Leave() error {
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return c.writeFrame(wire.MsgLeave, nil)
}

// Group returns the hosted group this session belongs to (0 for the
// default group).
func (c *Client) Group() wire.GroupID { return c.group }

// Close tears down the connection (and the UDP subscription, if any).
func (c *Client) Close() error {
	c.mu.Lock()
	d := c.dgram
	c.dgram = nil
	c.mu.Unlock()
	if d != nil {
		d.close()
	}
	err := c.conn.Close()
	<-c.done
	return err
}
