package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"groupkey/internal/cluster"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
)

// clusterConfig carries the resolved flags into the clustered server path.
type clusterConfig struct {
	node          string
	peersSpec     string
	leaseDir      string
	shards        int
	groups        int
	scheme        store.SchemeConfig
	leaseTTL      time.Duration
	period        time.Duration
	metricsAddr   string
	stateDir      string
	fsyncMode     string
	snapshotEvery int
}

// runCluster runs this process as one node of a replicated cluster: a
// private state directory per node, a shared lease directory arbitrating
// shard ownership, and listeners taken from this node's entry in the peer
// spec. It serves until stop delivers.
func runCluster(cfg clusterConfig, out io.Writer, stop <-chan os.Signal) error {
	if cfg.stateDir == "" {
		return fmt.Errorf("-cluster-node requires -state-dir (replication is built on the durable store)")
	}
	if cfg.leaseDir == "" {
		return fmt.Errorf("-cluster-node requires -cluster-dir (the shared lease directory)")
	}
	peers, err := cluster.ParsePeers(cfg.peersSpec)
	if err != nil {
		return err
	}
	self, ok := cluster.Peer{}, false
	for _, p := range peers {
		if p.ID == cluster.NodeID(cfg.node) {
			self, ok = p, true
		}
	}
	if !ok {
		return fmt.Errorf("-cluster-node %q not present in -cluster-peers", cfg.node)
	}
	fsyncPolicy, err := store.ParseFsyncPolicy(cfg.fsyncMode)
	if err != nil {
		return err
	}
	auth, err := cluster.NewDirAuthority(cfg.leaseDir)
	if err != nil {
		return err
	}

	var reg *metrics.Registry
	var clusterMetrics *cluster.Metrics
	var storeMetrics *store.Metrics
	var serverMetrics *server.Metrics
	if cfg.metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg)
		clusterMetrics = cluster.NewMetrics(reg)
		storeMetrics = store.NewMetrics(reg)
		serverMetrics = server.NewMetrics(reg, nil)
	}

	node, err := cluster.New(cluster.Config{
		Node:          cluster.NodeID(cfg.node),
		Peers:         peers,
		Shards:        cfg.shards,
		Groups:        cfg.groups,
		StateDir:      cfg.stateDir,
		Scheme:        cfg.scheme,
		LeaseTTL:      cfg.leaseTTL,
		Authority:     auth,
		SnapshotEvery: cfg.snapshotEvery,
		Fsync:         fsyncPolicy,
		Metrics:       clusterMetrics,
		StoreMetrics:  storeMetrics,
		ServerMetrics: serverMetrics,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "keyserverd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	clientLn, err := net.Listen("tcp", self.ClientAddr)
	if err != nil {
		node.Close()
		return fmt.Errorf("client listener: %w", err)
	}
	replLn, err := net.Listen("tcp", self.ReplAddr)
	if err != nil {
		clientLn.Close()
		node.Close()
		return fmt.Errorf("replication listener: %w", err)
	}
	node.Start(clientLn, replLn)
	node.Registry().StartPeriodic(cfg.period)

	metricsLabel := "off"
	if reg != nil {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			node.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: metrics.Handler(reg, nil)}
		go msrv.Serve(mln)
		defer msrv.Close()
		metricsLabel = "http://" + mln.Addr().String() + "/metrics"
	}

	startedAt := time.Now()
	fmt.Fprintf(out, "keyserverd: cluster node %s up: %d groups over %d shards, %d peers, clients on %s, replication on %s, lease ttl %v, metrics=%s\n",
		cfg.node, cfg.groups, cfg.shards, len(peers), clientLn.Addr(), replLn.Addr(), cfg.leaseTTL, metricsLabel)

	<-stop
	fmt.Fprintf(out, "keyserverd: cluster node %s shutting down after %v\n",
		cfg.node, time.Since(startedAt).Round(time.Second))
	return node.Close()
}
