// Command keyserverd runs a group key server daemon over TCP: members join
// and leave via the wire protocol, the daemon rekeys periodically with the
// selected key-management scheme, and (optionally) multicasts a demo data
// feed sealed under the group key.
//
// Usage:
//
//	keyserverd -listen 127.0.0.1:7600 -scheme tt -k 10 -period 5s -feed 2s
//
// The daemon hosts -groups independent groups (IDs 0..N-1, default 1)
// behind one listener: per-group schemes, signing keys, metrics labels and
// state namespaces. -group-scheme overrides the scheme for individual
// groups:
//
//	keyserverd -groups 64 -scheme tt -group-scheme "0=onetree,7=losshomog"
//
// With -state-dir the daemon journals every membership batch to a
// write-ahead log and snapshots encrypted scheme state under
// <state-dir>/<group>/, so a crash or restart recovers the exact group keys
// without a whole-group rekey:
//
//	keyserverd -state-dir /var/lib/groupkey -fsync always -snapshot-every 64
//
// -udp (the datagram rekey plane) and -state-key (the snapshot master key
// file) serve group 0 and need exactly one hosted group.
//
// With -cluster-node the daemon runs as one node of a replicated cluster:
// groups partition into -shards lease-owned shards, the owning primary
// streams its WAL to the other nodes, and any node redirects members to a
// group's current owner. Requires -state-dir (private per node) and
// -cluster-dir (shared lease directory):
//
//	keyserverd -cluster-node a -cluster-peers "a=:7601=:8601,b=:7602=:8602" \
//	    -cluster-dir /mnt/shared/leases -state-dir /var/lib/groupkey/a
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "keyserverd:", err)
		os.Exit(1)
	}
}

// run parses the flags and serves until stop delivers, logging to out.
func run(args []string, out io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("keyserverd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7600", "TCP listen address")
	udpAddr := fs.String("udp", "", "UDP listen address for group 0's datagram rekey plane (empty disables; needs exactly one group)")
	udpDrop := fs.Float64("udp-drop", 0, "fraction of outbound UDP packets to drop, for loss testing (0 disables)")
	udpDropSeed := fs.Int64("udp-drop-seed", 1, "seed for the deterministic -udp-drop schedule")
	schemeName := fs.String("scheme", "onetree", "onetree, naive, qt, tt, pt, losshomog")
	planner := fs.Bool("planner", false, "enable the batch placement planner on every key tree (on/off only: it has no settings and takes no runtime tuning)")
	k := fs.Int("k", 10, "S-period in rekey periods for qt/tt")
	period := fs.Duration("period", 5*time.Second, "rekey period Tp")
	feed := fs.Duration("feed", 0, "interval of the demo data feed (0 disables)")
	advise := fs.Duration("advise", 0, "interval for logging the adaptive scheme advisor for every group (0 disables)")
	rotate := fs.Duration("rotate", 0, "interval for scheduled group-key rotation (0 disables)")
	tlsCertOut := fs.String("tls-cert-out", "", "serve TLS with a fresh self-signed certificate, writing its PEM here for clients to pin")
	metricsAddr := fs.String("metrics", "", "HTTP listen address for /metrics and /metrics.json (empty disables)")
	rekeyWorkers := fs.Int("rekey-workers", 0, "wrap-emission workers per rekey (0 = GOMAXPROCS, 1 = serial)")
	stateDir := fs.String("state-dir", "", "durable state directory: WAL + encrypted snapshots (empty = in-memory only)")
	stateKey := fs.String("state-key", "", "hex master key file for group 0's snapshot encryption (default <state-dir>/0/master.key, auto-generated; needs exactly one group)")
	fsyncMode := fs.String("fsync", "always", "WAL durability: always, interval or never")
	snapshotEvery := fs.Int("snapshot-every", 64, "snapshot after this many journaled operations (0 = only on shutdown)")
	sendqCap := fs.Int("sendq-cap", 0, "per-client send queue capacity in frames (0 = default 256)")
	sendqHigh := fs.Int("sendq-high", 0, "queue depth that sheds data frames (0 = 3/4 of capacity)")
	sendqLow := fs.Int("sendq-low", 0, "queue depth that ends shedding and forgives overflows (0 = 1/4 of high)")
	evictAfter := fs.Int("evict-after", 0, "consecutive queue overflows before a slow client is evicted (0 = default 3)")
	joinRate := fs.Float64("join-rate", 0, "sustained join admissions per second (0 = unlimited)")
	joinBurst := fs.Int("join-burst", 0, "join admission burst size (0 = max(1, join-rate))")
	maxPendingJoins := fs.Int("max-pending-joins", 0, "cap on joins awaiting the next rekey (0 = unlimited)")
	groups := fs.Int("groups", 1, "host this many independent groups (IDs 0..N-1) behind one listener")
	groupSchemes := fs.String("group-scheme", "", "per-group scheme overrides as comma-separated GROUP=SCHEME pairs")
	clusterNode := fs.String("cluster-node", "", "run as this node of a replicated cluster (ID from -cluster-peers; empty = standalone)")
	clusterPeers := fs.String("cluster-peers", "", "cluster membership as comma-separated ID=CLIENTADDR=REPLADDR[=ADVERTISE] records (ADVERTISE = address put in member redirects, e.g. a proxy front)")
	clusterDir := fs.String("cluster-dir", "", "shared lease directory arbitrating shard ownership across the cluster's processes")
	shards := fs.Int("shards", 1, "lease-ownership units the groups are distributed over (cluster mode)")
	leaseTTL := fs.Duration("lease-ttl", 3*time.Second, "shard lease duration; failover detection latency is about one TTL (cluster mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := store.ParseSchemeConfig(*schemeName, *k)
	if err != nil {
		return err
	}
	cfg.Planner = *planner
	overrides, err := parseGroupSchemes(*groupSchemes, *k)
	if err != nil {
		return err
	}
	for g := range overrides {
		o := overrides[g]
		o.Planner = *planner
		overrides[g] = o
	}
	if *clusterNode != "" {
		if len(overrides) > 0 {
			return fmt.Errorf("-group-scheme is not supported in cluster mode")
		}
		if *udpAddr != "" {
			return fmt.Errorf("-udp is not supported in cluster mode")
		}
		return runCluster(clusterConfig{
			node: *clusterNode, peersSpec: *clusterPeers, leaseDir: *clusterDir,
			shards: *shards, groups: *groups, scheme: cfg, leaseTTL: *leaseTTL,
			period: *period, metricsAddr: *metricsAddr, stateDir: *stateDir,
			fsyncMode: *fsyncMode, snapshotEvery: *snapshotEvery,
		}, out, stop)
	}
	return runDaemon(daemonConfig{
		listen: *listen, groups: *groups, defaultScheme: cfg, overrides: overrides,
		k: *k, period: *period, feed: *feed, rotate: *rotate, advise: *advise,
		udpAddr: *udpAddr, udpDrop: *udpDrop, udpDropSeed: *udpDropSeed,
		tlsCertOut: *tlsCertOut, metricsAddr: *metricsAddr,
		rekeyWorkers: *rekeyWorkers, stateDir: *stateDir, stateKey: *stateKey,
		fsyncMode: *fsyncMode, snapshotEvery: *snapshotEvery,
		policy: overloadPolicyFromFlags(*sendqCap, *sendqHigh, *sendqLow,
			*evictAfter, *joinRate, *joinBurst, *maxPendingJoins),
	}, out, stop)
}

// overloadPolicyFromFlags derives every hosted group's overload policy from
// the flag values.
func overloadPolicyFromFlags(sendqCap, sendqHigh, sendqLow, evictAfter int,
	joinRate float64, joinBurst, maxPendingJoins int) server.OverloadPolicy {
	policy := server.DefaultOverloadPolicy()
	if sendqCap > 0 {
		policy.QueueCap = sendqCap
		// Re-derive the watermarks unless explicitly pinned below.
		policy.HighWatermark = 0
		policy.LowWatermark = 0
	}
	if sendqHigh > 0 {
		policy.HighWatermark = sendqHigh
	}
	if sendqLow > 0 {
		policy.LowWatermark = sendqLow
	}
	if evictAfter > 0 {
		policy.EvictAfter = evictAfter
	}
	policy.JoinRate = joinRate
	policy.JoinBurst = joinBurst
	policy.MaxPendingJoins = maxPendingJoins
	return policy
}

// parseGroupSchemes parses the -group-scheme value: comma-separated
// GROUP=SCHEME pairs, e.g. "0=onetree,7=losshomog".
func parseGroupSchemes(spec string, k int) (map[wire.GroupID]store.SchemeConfig, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[wire.GroupID]store.SchemeConfig)
	for _, pair := range strings.Split(spec, ",") {
		g, scheme, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-group-scheme: %q is not GROUP=SCHEME", pair)
		}
		id, err := strconv.ParseUint(g, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-group-scheme: bad group %q: %v", g, err)
		}
		cfg, err := store.ParseSchemeConfig(scheme, k)
		if err != nil {
			return nil, err
		}
		if _, dup := out[wire.GroupID(id)]; dup {
			return nil, fmt.Errorf("-group-scheme: group %d specified twice", id)
		}
		out[wire.GroupID(id)] = cfg
	}
	return out, nil
}
