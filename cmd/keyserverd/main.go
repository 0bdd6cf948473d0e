// Command keyserverd runs a group key server daemon over TCP: members join
// and leave via the wire protocol, the daemon rekeys periodically with the
// selected key-management scheme, and (optionally) multicasts a demo data
// feed sealed under the group key.
//
// Usage:
//
//	keyserverd -listen 127.0.0.1:7600 -scheme tt -k 10 -period 5s -feed 2s
//
// With -state-dir the daemon journals every membership batch to a
// write-ahead log and snapshots encrypted scheme state, so a crash or
// restart recovers the exact group keys without a whole-group rekey:
//
//	keyserverd -state-dir /var/lib/groupkey -fsync always -snapshot-every 64
//
// With -groups N the daemon hosts N independent groups (IDs 0..N-1)
// behind one listener: per-group schemes, signing keys, metrics labels
// and state namespaces (<state-dir>/<group>/). -group-scheme overrides
// the scheme for individual groups:
//
//	keyserverd -groups 64 -scheme tt -group-scheme "0=onetree,7=losshomog"
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
	"encoding/pem"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "keyserverd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("keyserverd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7600", "TCP listen address")
	udpAddr := fs.String("udp", "", "UDP listen address for the datagram rekey plane (empty disables)")
	udpDrop := fs.Float64("udp-drop", 0, "fraction of outbound UDP packets to drop, for loss testing (0 disables)")
	udpDropSeed := fs.Int64("udp-drop-seed", 1, "seed for the deterministic -udp-drop schedule")
	schemeName := fs.String("scheme", "onetree", "onetree, naive, qt, tt, pt, losshomog")
	planner := fs.Bool("planner", false, "enable the batch placement planner on every key tree (on/off only: it has no settings and takes no runtime tuning)")
	k := fs.Int("k", 10, "S-period in rekey periods for qt/tt")
	period := fs.Duration("period", 5*time.Second, "rekey period Tp")
	feed := fs.Duration("feed", 0, "interval of the demo data feed (0 disables)")
	advise := fs.Duration("advise", 0, "interval for logging the adaptive scheme advisor (0 disables)")
	rotate := fs.Duration("rotate", 0, "interval for scheduled group-key rotation (0 disables)")
	tlsCertOut := fs.String("tls-cert-out", "", "serve TLS with a fresh self-signed certificate, writing its PEM here for clients to pin")
	metricsAddr := fs.String("metrics", "", "HTTP listen address for /metrics and /metrics.json (empty disables)")
	rekeyWorkers := fs.Int("rekey-workers", 0, "wrap-emission workers per rekey (0 = GOMAXPROCS, 1 = serial)")
	stateDir := fs.String("state-dir", "", "durable state directory: WAL + encrypted snapshots (empty = in-memory only)")
	stateKey := fs.String("state-key", "", "hex master key file for snapshot encryption (default <state-dir>/master.key, auto-generated)")
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
	workers := core.WithRekeyWorkers(*rekeyWorkers)

	overrides, err := parseGroupSchemes(*groupSchemes, *k)
	if err != nil {
		return err
	}
	for g := range overrides {
		o := overrides[g]
		o.Planner = *planner
		overrides[g] = o
	}
	if *udpAddr != "" && (*clusterNode != "" || *groups > 1) {
		return fmt.Errorf("-udp is only supported in single-group standalone mode")
	}
	if *clusterNode != "" {
		if len(overrides) > 0 {
			return fmt.Errorf("-group-scheme is not supported in cluster mode")
		}
		return runCluster(clusterConfig{
			node: *clusterNode, peersSpec: *clusterPeers, leaseDir: *clusterDir,
			shards: *shards, groups: *groups, scheme: cfg, leaseTTL: *leaseTTL,
			period: *period, metricsAddr: *metricsAddr, stateDir: *stateDir,
			fsyncMode: *fsyncMode, snapshotEvery: *snapshotEvery,
		})
	}
	if *groups > 1 {
		return runMulti(multiConfig{
			listen: *listen, groups: *groups, defaultScheme: cfg, overrides: overrides,
			k: *k, period: *period, feed: *feed, rotate: *rotate,
			tlsCertOut: *tlsCertOut, metricsAddr: *metricsAddr,
			rekeyWorkers: *rekeyWorkers, stateDir: *stateDir, fsyncMode: *fsyncMode,
			snapshotEvery: *snapshotEvery,
			policy: overloadPolicyFromFlags(*sendqCap, *sendqHigh, *sendqLow,
				*evictAfter, *joinRate, *joinBurst, *maxPendingJoins),
		})
	}
	if len(overrides) > 0 {
		return fmt.Errorf("-group-scheme requires -groups > 1")
	}

	// The metrics registry is created up front so the store can register
	// its durability series before recovery runs.
	var reg *metrics.Registry
	var tracer *metrics.RekeyTracer
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg)
		tracer = metrics.NewRekeyTracer(256)
	}

	// Durable mode: recover (or create) the scheme on the state store and
	// reuse the persisted signing key. In-memory mode: build the scheme
	// directly, as before.
	var scheme core.Scheme
	var srv *server.Server
	var st *store.Store
	if *stateDir != "" {
		policy, err := store.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		var storeMetrics *store.Metrics
		if reg != nil {
			storeMetrics = store.NewMetrics(reg)
		}
		st, err = store.Open(*stateDir, store.Options{
			Fsync:         policy,
			KeyFile:       *stateKey,
			Metrics:       storeMetrics,
			SchemeOptions: []core.Option{workers},
		})
		if err != nil {
			return err
		}
		defer st.Close()
		res, err := st.Recover()
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *stateDir, err)
		}
		if res.Scheme != nil {
			scheme = res.Scheme
			fmt.Printf("keyserverd: recovered %s from %s: %d members, snapshot seq %d, replayed %d batches + %d rotations, truncated %d torn bytes\n",
				scheme.Name(), *stateDir, scheme.Size(), res.SnapshotSeq,
				res.ReplayedBatches, res.ReplayedRotations, res.TruncatedBytes)
		} else {
			scheme, err = st.Create(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("keyserverd: created %s state in %s (fsync=%s)\n", scheme.Name(), *stateDir, policy)
		}
		srv = server.NewWithKey(scheme, nil, st.SigningKey())
		srv.Persist(st, *snapshotEvery)
		srv.SetNextID(res.NextID)
		if err := srv.SetLastRekey(res.LastRekey); err != nil {
			return err
		}
	} else {
		scheme, err = cfg.Build(workers)
		if err != nil {
			return err
		}
		srv = server.New(scheme, nil)
	}

	srv.SetOverloadPolicy(overloadPolicyFromFlags(*sendqCap, *sendqHigh, *sendqLow,
		*evictAfter, *joinRate, *joinBurst, *maxPendingJoins))

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}

	metricsLabel := "off"
	if reg != nil {
		m := server.NewMetrics(reg, tracer)
		resolved := *rekeyWorkers
		if resolved <= 0 {
			resolved = runtime.GOMAXPROCS(0)
		}
		m.SetWrapWorkers(resolved)
		srv.Instrument(m)
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: metrics.Handler(reg, tracer)}
		go msrv.Serve(mln)
		defer msrv.Close()
		metricsLabel = "http://" + mln.Addr().String() + "/metrics"
	}

	transportLabel := "tcp"
	if *tlsCertOut != "" {
		cert, leaf, err := server.GenerateTLSCert(nil)
		if err != nil {
			return err
		}
		pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leaf.Raw})
		if err := os.WriteFile(*tlsCertOut, pemBytes, 0o644); err != nil {
			return err
		}
		srv.ServeTLS(ln, cert)
		transportLabel = "tls (pin certificate from " + *tlsCertOut + ")"
	} else {
		srv.Serve(ln)
	}
	udpLabel := "off"
	if *udpAddr != "" {
		pc, err := net.ListenPacket("udp", *udpAddr)
		if err != nil {
			return fmt.Errorf("udp listener: %w", err)
		}
		ucfg := server.UDPConfig{}
		if *udpDrop > 0 {
			// Drop calls are serialized under the plane's send lock, so an
			// unguarded rand.Rand is safe here.
			rng := rand.New(rand.NewSource(*udpDropSeed))
			ucfg.Drop = func() bool { return rng.Float64() < *udpDrop }
		}
		srv.ServeUDP(pc, ucfg)
		udpLabel = pc.LocalAddr().String()
		if *udpDrop > 0 {
			udpLabel += fmt.Sprintf(" (dropping %.0f%%)", *udpDrop*100)
		}
	}
	srv.StartPeriodic(*period)
	startedAt := time.Now()
	fmt.Printf("keyserverd: scheme=%s k=%d period=%v listening on %s over %s, udp=%s, metrics=%s\n",
		scheme.Name(), *k, *period, ln.Addr(), transportLabel, udpLabel, metricsLabel)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	if *rotate > 0 {
		go func() {
			ticker := time.NewTicker(*rotate)
			defer ticker.Stop()
			for range ticker.C {
				if _, err := srv.RotateNow(); err != nil {
					continue // empty group or shutting down
				}
			}
		}()
	}

	if *advise > 0 {
		// Runtime adaptation from the advisor's churn fit — the
		// two-partition S-period — changes which payloads a batch produces,
		// so it is only safe without a WAL: a durable deployment must replay
		// the log under the exact parameters it ran with, and there the
		// advisor stays log-only.
		tune := *stateDir == ""
		rekeyPeriod := *period
		go func() {
			ticker := time.NewTicker(*advise)
			defer ticker.Stop()
			for range ticker.C {
				rec, err := srv.Recommend(rekeyPeriod)
				if err != nil {
					fmt.Printf("advisor: waiting for churn data (%d departures observed)\n",
						srv.ObservedDepartures())
					continue
				}
				fmt.Printf("advisor: %v\n", rec)
				if !tune {
					continue
				}
				if rec.K > 0 && srv.SetSPeriod(rec.K) {
					fmt.Printf("advisor: S-period set to K=%d\n", rec.K)
				}
			}
		}()
	}

	if *feed > 0 {
		go func() {
			ticker := time.NewTicker(*feed)
			defer ticker.Stop()
			seq := 0
			for range ticker.C {
				seq++
				msg := fmt.Sprintf("frame %06d at %s", seq, time.Now().Format(time.RFC3339))
				if err := srv.Broadcast([]byte(msg)); err != nil {
					if err == server.ErrClosed {
						return
					}
					// No members yet: keep ticking.
					continue
				}
			}
		}()
	}

	<-stop
	fmt.Printf("keyserverd: shutting down after %v, %d rekeys, peak %d members\n",
		time.Since(startedAt).Round(time.Second), srv.TotalRekeys(), srv.PeakMembers())
	return srv.Close()
}
