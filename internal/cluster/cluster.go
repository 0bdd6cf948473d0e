// Package cluster turns the single key server into a replicated
// primary/backup cluster sharded by group. Groups map onto a fixed set of
// shards; for every shard exactly one node holds a time-bounded lease and
// serves the shard's groups as primary, journaling to its local store and
// streaming each journaled record — kind, sequence, replay seed — to the
// other nodes, whose stores apply them verbatim and therefore derive
// byte-identical key material. When a primary dies its lease expires, a
// follower acquires the shard under a higher fence epoch, promotes its
// replica stores into live servers with the same Ed25519 signing identity,
// and members are redirected (or resume) against the new owner. A deposed
// primary can never emit a rekey after losing its lease: every mutation is
// gated on a fence check against the lease authority, and its replication
// stream dies at the epoch check on every follower.
package cluster

import (
	"fmt"
	"groupkey/internal/clock"
	"sort"
	"strings"
	"time"

	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// NodeID names one cluster node. IDs must be unique across the cluster
// and stable across restarts (they appear in lease files).
type NodeID string

// ShardID identifies one lease-ownership unit. Groups are distributed
// over shards by ShardOf; ownership moves shard-at-a-time.
type ShardID uint32

// ShardOf maps a group onto one of `shards` shards.
func ShardOf(g wire.GroupID, shards int) ShardID {
	if shards <= 1 {
		return 0
	}
	return ShardID(uint32(g) % uint32(shards))
}

// Peer is one cluster node's addressing record: where members connect and
// where followers stream replication.
type Peer struct {
	ID         NodeID
	ClientAddr string
	ReplAddr   string
	// AdvertiseAddr, when nonempty, is the address members are redirected
	// to instead of ClientAddr — the proxy-aware option for deployments
	// (and WAN-chaos harnesses) where members must reach nodes through a
	// shaping proxy or load balancer rather than the listen address.
	AdvertiseAddr string
}

// Advertised returns the address members should be redirected to.
func (p Peer) Advertised() string {
	if p.AdvertiseAddr != "" {
		return p.AdvertiseAddr
	}
	return p.ClientAddr
}

// ParsePeers parses a cluster membership spec: comma-separated
// ID=CLIENTADDR=REPLADDR[=ADVERTISE] records, e.g.
//
//	a=127.0.0.1:7601=127.0.0.1:8601,b=127.0.0.1:7602=127.0.0.1:8602
//
// The optional fourth field is the advertised client address used in
// member redirects (empty = ClientAddr).
func ParsePeers(spec string) ([]Peer, error) {
	if spec == "" {
		return nil, fmt.Errorf("cluster: empty peer spec")
	}
	var peers []Peer
	seen := map[NodeID]bool{}
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), "=")
		if len(fields) < 3 || len(fields) > 4 || fields[0] == "" || fields[1] == "" || fields[2] == "" {
			return nil, fmt.Errorf("cluster: peer %q is not ID=CLIENTADDR=REPLADDR[=ADVERTISE]", part)
		}
		id := NodeID(fields[0])
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", id)
		}
		seen[id] = true
		p := Peer{ID: id, ClientAddr: fields[1], ReplAddr: fields[2]}
		if len(fields) == 4 {
			if fields[3] == "" {
				return nil, fmt.Errorf("cluster: peer %q has an empty advertise address", part)
			}
			p.AdvertiseAddr = fields[3]
		}
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}

// Config assembles a Node.
type Config struct {
	// Node is this node's ID; it must appear in Peers.
	Node NodeID
	// Peers is the full cluster membership, including this node.
	Peers []Peer
	// Shards is the number of lease-ownership units (default 1).
	Shards int
	// Groups is how many groups the cluster hosts (IDs 0..Groups-1);
	// groups with recovered local state beyond that range are hosted too.
	Groups int
	// StateDir is this node's private state root (per-group namespaces
	// beneath it, exactly like a standalone multi-group server).
	StateDir string
	// Scheme configures groups created fresh on first promotion.
	Scheme store.SchemeConfig
	// LeaseTTL is the shard lease duration; leases are renewed at a third
	// of it (default 3s).
	LeaseTTL time.Duration
	// Authority arbitrates shard ownership. Required: MemAuthority for
	// in-process clusters and tests, DirAuthority for multi-process
	// deployments sharing a directory.
	Authority Authority
	// SnapshotEvery is the store snapshot cadence while primary.
	SnapshotEvery int
	// Fsync selects the store durability policy.
	Fsync store.FsyncPolicy
	// Metrics receives cluster instruments; nil disables.
	Metrics *Metrics
	// StoreMetrics receives per-store durability instruments; nil disables.
	StoreMetrics *store.Metrics
	// ServerMetrics is the aggregate server bundle each group's primary
	// reports into, through one ForGroup view per group kept across
	// promotions; nil disables.
	ServerMetrics *server.Metrics
	// DialTimeout bounds replication dials and handshakes (default 5s).
	DialTimeout time.Duration
	// NoTicker disables the background lease loop; the owner drives
	// Tick explicitly. Tests use this for deterministic failover.
	NoTicker bool
	// Clock drives the lease-renewal ticker and replication retry
	// backoff (nil means the wall clock). Socket deadlines stay on the
	// wall clock regardless — they bound kernel I/O.
	Clock clock.Clock
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// peer resolves a node ID against the membership.
func (c Config) peer(id NodeID) (Peer, bool) {
	for _, p := range c.Peers {
		if p.ID == id {
			return p, true
		}
	}
	return Peer{}, false
}
