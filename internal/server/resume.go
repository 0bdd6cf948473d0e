package server

import (
	"crypto/ed25519"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/member"
	"groupkey/internal/snapcodec"
	"groupkey/internal/wire"
)

// Client-side session resumption: a member that saved its state (State)
// reconnects after a server or client restart with ResumeDial, proving it
// still holds its individual key instead of re-joining — no group rekey,
// no new member ID. The saved blob contains every key the member holds;
// callers own encryption at rest (cmd/memberclient stores it 0600).

// Client state layout (snapcodec): "GKC1" | version(4) = 2 | group(4)
// | epoch(8) | individual key record | server key(32) | member snapshot
// (the rest of the blob). Version 1, which had no group, is rejected.
const (
	clientStateMagic   = "GKC1"
	clientStateVersion = 2
)

// errBadClientState reports a malformed client state blob.
var errBadClientState = errors.New("server: malformed client state")

// ClientState is the decoded resumable session.
type ClientState struct {
	// Group is the hosted group the session belongs to (0 = default).
	Group wire.GroupID
	// Indiv is the member's current individual (leaf) key — the resume
	// proof is sealed under it.
	Indiv keycrypt.Key
	// ServerKey is the pinned Ed25519 server signing key.
	ServerKey ed25519.PublicKey
	// Epoch is the newest rekey epoch the client processed.
	Epoch uint64
	// Member is the restored key store.
	Member *member.Member
}

// State serializes everything needed to resume this session later.
func (c *Client) State() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mem == nil {
		return nil, ErrNotWelcomed
	}
	w := snapcodec.NewWriter(clientStateMagic)
	w.U32(clientStateVersion)
	w.U32(uint32(c.group))
	w.U64(c.epoch)
	w.Key(c.indiv)
	w.Raw(c.serverKey)
	w.Raw(c.mem.Snapshot())
	return w.Bytes(), nil
}

// DecodeClientState parses a State blob.
func DecodeClientState(blob []byte) (*ClientState, error) {
	r := snapcodec.NewReader(blob, clientStateMagic, errBadClientState)
	r.Version(clientStateVersion)
	st := &ClientState{
		Group: wire.GroupID(r.U32()),
		Epoch: r.U64(),
		Indiv: r.Key(),
	}
	st.ServerKey = append(ed25519.PublicKey(nil), r.Raw(ed25519.PublicKeySize)...)
	mem := r.Rest()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var err error
	if st.Member, err = member.Restore(mem); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadClientState, err)
	}
	return st, nil
}

// ResumeDial reconnects a previously saved session over plain TCP.
// Cluster redirects are followed transparently, so a member resumes
// against the group's current owner even after a failover moved it.
func ResumeDial(addr string, state []byte, timeout time.Duration) (*Client, error) {
	return ResumeDialVia(addr, state, timeout, nil)
}

// ResumeDialVia is ResumeDial with an address rewrite applied to every
// cluster redirect target before re-dialing, mirroring DialGroupVia for
// members that reach the cluster through per-region proxies. A nil rewrite
// is the identity.
func ResumeDialVia(addr string, state []byte, timeout time.Duration, rewrite func(string) string) (*Client, error) {
	st, err := DecodeClientState(state)
	if err != nil {
		return nil, err
	}
	return followRedirectsVia(addr, rewrite, func(addr string) (*Client, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
		}
		return resumeOnConn(conn, st, timeout)
	})
}

// ResumeDialTLS reconnects a previously saved session over TLS, pinning
// the server certificate pool as DialTLS does. Cluster redirects are
// followed transparently.
func ResumeDialTLS(addr string, state []byte, timeout time.Duration, pool *x509.CertPool) (*Client, error) {
	st, err := DecodeClientState(state)
	if err != nil {
		return nil, err
	}
	return followRedirectsVia(addr, nil, func(addr string) (*Client, error) {
		conn, err := dialTLS(addr, timeout, pool)
		if err != nil {
			return nil, err
		}
		return resumeOnConn(conn, st, timeout)
	})
}

// resumeOnConn performs the resume handshake over an established
// connection.
func resumeOnConn(conn net.Conn, st *ClientState, timeout time.Duration) (*Client, error) {
	c := newClient(conn, st.Group)
	c.mem, c.id, c.serverKey = st.Member, st.Member.ID(), st.ServerKey
	c.epoch, c.indiv = st.Epoch, st.Indiv
	proof, err := keycrypt.Seal(st.Indiv, resumeProof(c.id), nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c.handshake(wire.MsgResume, wire.ResumeRequest{Member: c.id, Proof: proof}.Encode(), timeout)
}
