package server

import (
	"crypto/tls"
	"errors"
	"fmt"
	"groupkey/internal/clock"
	"net"
	"sort"
	"sync"
	"time"

	"groupkey/internal/wire"
)

// Registry errors.
var (
	ErrGroupExists  = errors.New("server: group already hosted")
	ErrGroupUnknown = errors.New("server: group not hosted")
)

// registryStripes is the shard count of the group table. Sixteen stripes
// keeps lock contention negligible at hundreds of groups while bounding
// the periodic-rekey goroutine count.
const registryStripes = 16

// routeTimeout bounds how long a freshly accepted connection may sit
// silent before sending its first (routing) frame.
const routeTimeout = 30 * time.Second

// ownerRetryAfter is the retry hint of a cluster node that knows no owner
// for a group yet.
const ownerRetryAfter = 250 * time.Millisecond

// Registry hosts many independent group key servers behind one listener.
// Each hosted group is a complete *Server — its own scheme, signing key,
// overload policy, metrics view and (optionally) durable store — and the
// registry routes every inbound connection to the group its first frame
// addresses; every later frame on it must address the same group.
//
// The group table is striped: lookups take one shard's RWMutex, and the
// periodic rekey ticker runs one pipeline per stripe, so groups on
// different stripes rekey concurrently while a group never sees two of
// its own rekeys overlap.
type Registry struct {
	stripes [registryStripes]registryStripe

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	resolver Resolver
	clock    clock.Clock // nil = wall clock

	wg     sync.WaitGroup
	stopCh chan struct{}
}

// SetClock injects the registry's time source for the periodic rekey
// pipelines (nil restores the wall clock). Call before StartPeriodic.
func (r *Registry) SetClock(c clock.Clock) { r.clock = c }

// Resolver is the cluster map: it locates the node currently owning a
// group, so connections for groups this node does not host are answered
// with a MsgRedirect instead of an error. Implemented by the cluster
// layer; a standalone registry has none.
type Resolver interface {
	// Locate returns the client-facing address of the node owning g and
	// that node's lease epoch; ok is false when no node owns the group.
	// known tells a group the map holds, whose owner has not taken it yet,
	// from one the map has never heard of.
	Locate(g wire.GroupID) (addr string, epoch uint64, known, ok bool)
}

type registryStripe struct {
	mu     sync.RWMutex
	groups map[wire.GroupID]*Server
}

// NewRegistry returns an empty multi-group host.
func NewRegistry() *Registry {
	r := &Registry{stopCh: make(chan struct{})}
	for i := range r.stripes {
		r.stripes[i].groups = make(map[wire.GroupID]*Server)
	}
	return r
}

func (r *Registry) stripe(g wire.GroupID) *registryStripe {
	return &r.stripes[uint32(g)%registryStripes]
}

// Add hosts srv as group g, binding the server to that wire address.
// Call before Serve (the binding is read lock-free on hot paths).
func (r *Registry) Add(g wire.GroupID, srv *Server) error {
	st := r.stripe(g)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.groups[g]; dup {
		return fmt.Errorf("%w: %d", ErrGroupExists, g)
	}
	srv.group = g
	st.groups[g] = srv
	return nil
}

// Remove unhosts group g, returning the server that held it (nil when the
// group was not hosted). The server itself is not closed — the caller owns
// its shutdown. Connections already routed keep their binding until the
// caller closes the server; fresh connections for g are redirected (or
// rejected) from the next route on.
func (r *Registry) Remove(g wire.GroupID) *Server {
	st := r.stripe(g)
	st.mu.Lock()
	defer st.mu.Unlock()
	srv := st.groups[g]
	delete(st.groups, g)
	return srv
}

// SetResolver attaches the cluster map used to redirect connections for
// groups this registry does not host.
func (r *Registry) SetResolver(res Resolver) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resolver = res
}

func (r *Registry) getResolver() Resolver {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resolver
}

// Get returns the server hosting group g, or nil.
func (r *Registry) Get(g wire.GroupID) *Server {
	st := r.stripe(g)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.groups[g]
}

// Groups returns the hosted group IDs in ascending order.
func (r *Registry) Groups() []wire.GroupID {
	var out []wire.GroupID
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.RLock()
		for g := range st.groups {
			out = append(out, g)
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Serve starts accepting connections on ln, routing each to the group its
// first frame addresses. It returns immediately; the accept loop runs
// until Close.
func (r *Registry) Serve(ln net.Listener) {
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				r.route(conn)
			}()
		}
	}()
}

// ServeTLS starts accepting TLS connections on ln using the given
// certificate; routing and the wire protocol on top are unchanged.
func (r *Registry) ServeTLS(ln net.Listener, cert tls.Certificate) {
	r.Serve(tls.NewListener(ln, &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS13,
	}))
}

// Addr returns the listener address.
func (r *Registry) Addr() net.Addr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ln == nil {
		return nil
	}
	return r.ln.Addr()
}

// route reads the connection's first frame, resolves its group, and hands
// the connection (first frame included) to that group's server, which
// owns it from here on.
func (r *Registry) route(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(routeTimeout))
	g, t, payload, err := wire.ReadFrameGroup(conn)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if t == wire.MsgWhereIs {
		// Cluster map query: any node answers with the owner's address —
		// the group in the payload, not the frame header, is being located.
		defer conn.Close()
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		q, err := wire.DecodeWhereIs(payload)
		if err != nil {
			_ = wire.WriteFrameGroup(conn, g, wire.MsgError, []byte(err.Error()))
			return
		}
		res := r.getResolver()
		if res == nil {
			_ = wire.WriteFrameGroup(conn, g, wire.MsgError, []byte("no cluster map"))
			return
		}
		addr, epoch, _, ok := res.Locate(q)
		if !ok {
			_ = wire.WriteFrameGroup(conn, g, wire.MsgError, []byte(fmt.Sprintf("unknown group %d", q)))
			return
		}
		_ = wire.WriteFrameGroup(conn, g, wire.MsgRedirect, wire.EncodeRedirect(addr, epoch))
		return
	}
	srv := r.Get(g)
	if srv == nil {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		var addr string
		var epoch uint64
		var known, ok bool
		if res := r.getResolver(); res != nil {
			addr, epoch, known, ok = res.Locate(g)
		}
		switch {
		case ok:
			_ = wire.WriteFrameGroup(conn, g, wire.MsgRedirect, wire.EncodeRedirect(addr, epoch))
		case known:
			// A cluster group whose owner has not taken it yet, as while a
			// failover takes the lease: the caller is told to come back,
			// not refused.
			_ = wire.WriteFrameGroup(conn, g, wire.MsgRetry, wire.EncodeRetryAfter(ownerRetryAfter))
		default:
			_ = wire.WriteFrameGroup(conn, g, wire.MsgError, []byte(fmt.Sprintf("unknown group %d", g)))
		}
		conn.Close()
		return
	}
	srv.handleFrames(conn, t, payload)
}

// StartPeriodic rekeys every hosted group every interval until Close. One
// pipeline runs per stripe: groups on different stripes rekey in
// parallel, groups sharing a stripe rekey in sequence — bounded
// concurrency without a goroutine per group.
func (r *Registry) StartPeriodic(interval time.Duration) {
	for i := range r.stripes {
		st := &r.stripes[i]
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ticker := clock.Or(r.clock).NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-r.stopCh:
					return
				case <-ticker.C():
					for _, srv := range st.servers() {
						// Closed and fenced servers are on their way out of
						// the table (shutdown or a cluster demotion); neither
						// may kill the stripe's periodic loop.
						if _, err := srv.RekeyNow(); err != nil &&
							!errors.Is(err, ErrClosed) && !errors.Is(err, ErrFenced) {
							return
						}
					}
				}
			}
		}()
	}
}

// servers snapshots one stripe's group table.
func (st *registryStripe) servers() []*Server {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Server, 0, len(st.groups))
	for _, srv := range st.groups {
		out = append(out, srv)
	}
	return out
}

// RekeyAllNow rekeys every hosted group once, stripes in parallel, and
// returns the first error (remaining stripes still finish).
func (r *Registry) RekeyAllNow() error {
	errCh := make(chan error, registryStripes)
	var wg sync.WaitGroup
	for i := range r.stripes {
		st := &r.stripes[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, srv := range st.servers() {
				if _, err := srv.RekeyNow(); err != nil && !errors.Is(err, ErrClosed) {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// Close stops the registry: the listener closes, periodic pipelines stop,
// and every hosted server is closed (saving final snapshots where
// persisted). The first close error is returned.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stopCh)
	if r.ln != nil {
		r.ln.Close()
	}
	r.mu.Unlock()

	var first error
	for i := range r.stripes {
		for _, srv := range r.stripes[i].servers() {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	r.wg.Wait()
	return first
}
