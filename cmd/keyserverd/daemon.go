package main

import (
	"encoding/pem"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// daemonConfig carries the resolved flags into the daemon.
type daemonConfig struct {
	listen        string
	groups        int
	defaultScheme store.SchemeConfig
	overrides     map[wire.GroupID]store.SchemeConfig
	k             int
	period        time.Duration
	feed          time.Duration
	rotate        time.Duration
	advise        time.Duration
	udpAddr       string
	udpDrop       float64
	udpDropSeed   int64
	tlsCertOut    string
	metricsAddr   string
	rekeyWorkers  int
	stateDir      string
	stateKey      string
	fsyncMode     string
	snapshotEvery int
	policy        server.OverloadPolicy
}

// runDaemon hosts cfg.groups independent groups behind one listener: a
// server.Registry with per-group schemes, signing keys, metrics views and
// state namespaces (<state-dir>/<group>/). It serves until stop delivers.
func runDaemon(cfg daemonConfig, out io.Writer, stop <-chan os.Signal) error {
	if cfg.groups < 1 {
		return fmt.Errorf("-groups %d: at least one group is required", cfg.groups)
	}
	for g := range cfg.overrides {
		if int(g) >= cfg.groups {
			return fmt.Errorf("-group-scheme: group %d outside -groups %d", g, cfg.groups)
		}
	}

	var reg *metrics.Registry
	var tracer *metrics.RekeyTracer
	var aggregate *server.Metrics
	if cfg.metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg)
		tracer = metrics.NewRekeyTracer(256)
		aggregate = server.NewMetrics(reg, tracer)
		resolved := cfg.rekeyWorkers
		if resolved <= 0 {
			resolved = runtime.GOMAXPROCS(0)
		}
		aggregate.SetWrapWorkers(resolved)
	}

	// Hosted set: 0..groups-1, plus any group with recovered state beyond
	// that range — shrinking -groups must not silently orphan durable
	// groups' members.
	hosted := make(map[wire.GroupID]bool, cfg.groups)
	for g := 0; g < cfg.groups; g++ {
		hosted[wire.GroupID(g)] = true
	}
	var fsyncPolicy store.FsyncPolicy
	var storeMetrics *store.Metrics
	if cfg.stateDir != "" {
		var err error
		fsyncPolicy, err = store.ParseFsyncPolicy(cfg.fsyncMode)
		if err != nil {
			return err
		}
		if reg != nil {
			storeMetrics = store.NewMetrics(reg)
		}
		existing, err := store.ListGroupDirs(cfg.stateDir)
		if err != nil {
			return err
		}
		for _, g := range existing {
			hosted[g] = true
		}
	}
	ids := make([]wire.GroupID, 0, len(hosted))
	for g := range hosted {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Group 0 is always hosted, so with one group these flags configure it.
	if (cfg.udpAddr != "" || cfg.stateKey != "") && len(ids) != 1 {
		return fmt.Errorf("-udp and -state-key need exactly one hosted group, have %d", len(ids))
	}

	registry := server.NewRegistry()
	var stores []*store.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	recovered := 0
	for _, g := range ids {
		schemeCfg := cfg.defaultScheme
		if o, ok := cfg.overrides[g]; ok {
			schemeCfg = o
		}
		opts := []core.Option{
			core.WithRekeyWorkers(cfg.rekeyWorkers),
			core.WithKeyIDBase(store.GroupKeyIDBase(g)),
		}
		var srv *server.Server
		if cfg.stateDir != "" {
			dir := store.GroupDir(cfg.stateDir, g)
			st, err := store.Open(dir, store.Options{
				Fsync:         fsyncPolicy,
				KeyFile:       cfg.stateKey,
				Metrics:       storeMetrics,
				SchemeOptions: opts,
			})
			if err != nil {
				return fmt.Errorf("group %d: %w", g, err)
			}
			stores = append(stores, st)
			res, err := st.Recover()
			if err != nil {
				return fmt.Errorf("group %d: recovering %s: %w", g, dir, err)
			}
			scheme := res.Scheme
			if scheme != nil {
				recovered++
				fmt.Fprintf(out, "keyserverd: group %d: recovered %s from %s: %d members, snapshot seq %d, replayed %d batches + %d rotations, truncated %d torn bytes\n",
					g, scheme.Name(), dir, scheme.Size(), res.SnapshotSeq,
					res.ReplayedBatches, res.ReplayedRotations, res.TruncatedBytes)
			} else {
				scheme, err = st.Create(schemeCfg)
				if err != nil {
					return fmt.Errorf("group %d: %w", g, err)
				}
				fmt.Fprintf(out, "keyserverd: group %d: created %s state in %s (fsync=%s)\n", g, scheme.Name(), dir, fsyncPolicy)
			}
			srv = server.NewWithKey(scheme, nil, st.SigningKey())
			srv.Persist(st, cfg.snapshotEvery)
			srv.SetNextID(res.NextID)
		} else {
			scheme, err := schemeCfg.Build(opts...)
			if err != nil {
				return fmt.Errorf("group %d: %w", g, err)
			}
			srv = server.New(scheme, nil)
		}
		srv.SetOverloadPolicy(cfg.policy)
		if aggregate != nil {
			srv.Instrument(aggregate.ForGroup(g))
		}
		if err := registry.Add(g, srv); err != nil {
			return err
		}
	}
	// each visits every hosted group's server.
	each := func(fn func(wire.GroupID, *server.Server)) {
		for _, g := range registry.Groups() {
			if srv := registry.Get(g); srv != nil {
				fn(g, srv)
			}
		}
	}

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}

	metricsLabel := "off"
	if reg != nil {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
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
	if cfg.tlsCertOut != "" {
		cert, leaf, err := server.GenerateTLSCert(nil)
		if err != nil {
			ln.Close()
			return err
		}
		pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: leaf.Raw})
		if err := os.WriteFile(cfg.tlsCertOut, pemBytes, 0o644); err != nil {
			ln.Close()
			return err
		}
		registry.ServeTLS(ln, cert)
		transportLabel = "tls (pin certificate from " + cfg.tlsCertOut + ")"
	} else {
		registry.Serve(ln)
	}
	defer registry.Close()
	udpLabel := "off"
	if cfg.udpAddr != "" {
		pc, err := net.ListenPacket("udp", cfg.udpAddr)
		if err != nil {
			return fmt.Errorf("udp listener: %w", err)
		}
		ucfg := server.UDPConfig{}
		if cfg.udpDrop > 0 {
			// Drop calls are serialized under the plane's send lock, so an
			// unguarded rand.Rand is safe here.
			rng := rand.New(rand.NewSource(cfg.udpDropSeed))
			ucfg.Drop = func() bool { return rng.Float64() < cfg.udpDrop }
		}
		registry.Get(0).ServeUDP(pc, ucfg)
		udpLabel = pc.LocalAddr().String()
		if cfg.udpDrop > 0 {
			udpLabel += fmt.Sprintf(" (dropping %.0f%%)", cfg.udpDrop*100)
		}
	}
	registry.StartPeriodic(cfg.period)
	startedAt := time.Now()
	fmt.Fprintf(out, "keyserverd: hosting %d groups (%d recovered) scheme=%s k=%d period=%v listening on %s over %s, udp=%s, metrics=%s\n",
		len(ids), recovered, cfg.defaultScheme.Kind, cfg.k, cfg.period, ln.Addr(), transportLabel, udpLabel, metricsLabel)

	// The periodic tasks stop, and are waited for, once the daemon returns.
	var tasks sync.WaitGroup
	done := make(chan struct{})
	defer func() {
		close(done)
		tasks.Wait()
	}()
	every := func(interval time.Duration, fn func()) {
		if interval <= 0 {
			return
		}
		tasks.Add(1)
		go func() {
			defer tasks.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					fn()
				}
			}
		}()
	}
	every(cfg.rotate, func() {
		each(func(_ wire.GroupID, srv *server.Server) {
			_, _ = srv.RotateNow() // empty group or shutting down
		})
	})
	// Runtime adaptation from the advisor's churn fit — the two-partition
	// S-period — changes which payloads a batch produces, so it is only safe
	// without a WAL: a durable deployment must replay the log under the
	// exact parameters it ran with, and there the advisor stays log-only.
	tune := cfg.stateDir == ""
	every(cfg.advise, func() {
		each(func(g wire.GroupID, srv *server.Server) {
			rec, err := srv.Recommend(cfg.period)
			if err != nil {
				fmt.Fprintf(out, "advisor: group %d: waiting for churn data (%d departures observed)\n",
					g, srv.ObservedDepartures())
				return
			}
			fmt.Fprintf(out, "advisor: group %d: %v\n", g, rec)
			if tune && rec.K > 0 && srv.SetSPeriod(rec.K) {
				fmt.Fprintf(out, "advisor: group %d: S-period set to K=%d\n", g, rec.K)
			}
		})
	})
	seq := 0
	every(cfg.feed, func() {
		seq++
		each(func(g wire.GroupID, srv *server.Server) {
			msg := fmt.Sprintf("group %d frame %06d at %s", g, seq, time.Now().Format(time.RFC3339))
			_ = srv.Broadcast([]byte(msg)) // no members yet, or shutting down
		})
	})

	<-stop
	var totalRekeys uint64
	peak := 0
	each(func(_ wire.GroupID, srv *server.Server) {
		totalRekeys += srv.TotalRekeys()
		peak += srv.PeakMembers()
	})
	fmt.Fprintf(out, "keyserverd: shutting down after %v, %d rekeys across %d groups, peak %d members total\n",
		time.Since(startedAt).Round(time.Second), totalRekeys, len(ids), peak)
	return registry.Close()
}
