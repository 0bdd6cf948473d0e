package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"groupkey/internal/wire"
)

// Client-side cluster awareness: a clustered registry answers joins and
// resumes for groups it does not own with a MsgRedirect naming the owning
// node. The dial helpers follow a bounded chain of redirects, so members
// reach the current owner whichever cluster node they were configured
// with; WhereIs queries the cluster map explicitly.

// maxRedirects bounds a redirect chain: one hop finds the owner in the
// steady state, a couple more cover a failover racing the dial. Beyond
// that the cluster map is churning and the caller should back off.
const maxRedirects = 4

// RedirectError reports that the dialed node does not own the requested
// group and named the node that does. Dial helpers follow it internally;
// it surfaces only when the redirect chain exceeds maxRedirects or points
// at an unreachable node. errors.As unwraps it.
type RedirectError struct {
	// Addr is the owning node's client-facing address.
	Addr string
	// Epoch is the owner's lease epoch at redirect time.
	Epoch uint64
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("server: group owned by %s (epoch %d)", e.Addr, e.Epoch)
}

// followRedirectsVia runs one dial-and-handshake attempt, re-dialing at
// the redirect target when the contacted node does not own the group. The
// rewrite is applied to every redirect target first: members behind a
// proxy dial the proxy directly, but cluster redirects name the server's
// real (or advertised) addresses; the rewrite maps those back onto the
// member's local path. A nil rewrite is the identity.
func followRedirectsVia(addr string, rewrite func(string) string, attempt func(addr string) (*Client, error)) (*Client, error) {
	seen := map[string]bool{addr: true}
	for hops := 0; ; hops++ {
		c, err := attempt(addr)
		var rd *RedirectError
		if err != nil && errors.As(err, &rd) && hops < maxRedirects && rd.Addr != "" {
			next := rd.Addr
			if rewrite != nil {
				next = rewrite(next)
			}
			if next == "" || seen[next] {
				return c, err
			}
			seen[next] = true
			addr = next
			continue
		}
		return c, err
	}
}

// WhereIs asks the cluster node at addr which node owns group g, returning
// the owner's client-facing address and lease epoch.
func WhereIs(addr string, g wire.GroupID, timeout time.Duration) (owner string, epoch uint64, err error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return "", 0, fmt.Errorf("server: dialing %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteFrame(conn, wire.MsgWhereIs, wire.EncodeWhereIs(g)); err != nil {
		return "", 0, err
	}
	t, payload, err := wire.ReadFrame(conn)
	if err != nil {
		return "", 0, err
	}
	switch t {
	case wire.MsgRedirect:
		return wire.DecodeRedirect(payload)
	case wire.MsgError:
		return "", 0, fmt.Errorf("server: whereis rejected: %s", payload)
	default:
		return "", 0, fmt.Errorf("server: unexpected %v answering whereis", t)
	}
}
