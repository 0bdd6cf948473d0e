package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/store"
	"groupkey/internal/wire"
)

// workload is one traffic mix. The table in README.md says why each exists
// and which layer it loads; the numbers here are the configuration only.
type workload struct {
	name string
	// n is the group size; live of those members are connected probes and
	// the rest are phantoms that exist only in the key tree. Tree cost
	// follows n, fan-out cost follows live.
	n, live int
	// replace is how many probes leave and how many join per epoch.
	replace int
	// dataFrames 1 KiB Server.Broadcast frames follow every rekey.
	dataFrames int
	// tt selects the paper's two-partition TT scheme (K = ttK) with the
	// placement planner on; otherwise the one-keytree baseline, d = 4.
	tt bool
	// durable attaches a store with keyserverd's defaults.
	durable bool
	// twoClass replaces the fixed replacement churn with the paper's
	// two-class arrival process: classJoins[epoch%2] members join per
	// epoch, each long- or short-lived (see epoch.go).
	twoClass   bool
	classJoins [2]int
	// udpSubs long-lived server.Clients take their keys over the datagram
	// plane, with udpLoss send-side loss injected.
	udpSubs int
	udpLoss float64
}

const (
	ttK           = 10 // S-period in epochs
	snapshotEvery = 64 // keyserverd's -snapshot-every default
	dataFrameSize = 1024
	nackDelay     = 20 * time.Millisecond
	// deliveryTimeout is how long an epoch may take to reach every member
	// before the stragglers count as failed.
	deliveryTimeout = 5 * time.Second
)

var workloads = []workload{
	{name: "churn10k", n: 10000, live: 512, replace: 256, dataFrames: 1},
	{name: "churn100k", n: 100000, live: 512, replace: 256, dataFrames: 1},
	{name: "fanout2k", n: 2048, live: 2048, replace: 16, dataFrames: 4},
	{name: "durable_tt", n: 10000, live: 720, dataFrames: 1, tt: true, durable: true, twoClass: true, classJoins: [2]int{64, 32}},
	{name: "udp_loss5", n: 10000, live: 56, replace: 16, dataFrames: 1, udpSubs: 8, udpLoss: 0.05},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// schemeConfig is the construction recipe of the workload's scheme.
func (w workload) schemeConfig() store.SchemeConfig {
	if w.tt {
		return store.SchemeConfig{Kind: store.SchemeTT, Degree: 4, SPeriodK: ttK, Planner: true}
	}
	return store.SchemeConfig{Kind: store.SchemeOneTree, Degree: 4}
}

// phantomBatches are the two batches that populate the tree before any
// member connects: n phantoms join, then w.live evenly spaced ones leave,
// so the probes that join next descend into spread-out subtrees instead of
// one corner of the tree. Both are empty when every member is connected.
func (w workload) phantomBatches() (joins, leaves core.Batch) {
	if w.live >= w.n {
		return joins, leaves
	}
	joins.Joins = make([]core.Join, w.n)
	for i := range joins.Joins {
		joins.Joins[i] = core.Join{ID: keytree.MemberID(i + 1), Meta: core.MemberMeta{LossRate: -1}}
	}
	for i := 0; i < w.live; i++ {
		leaves.Leaves = append(leaves.Leaves, keytree.MemberID(i*w.n/w.live+1))
	}
	return joins, leaves
}

// scaled shrinks a workload to a group of n members for the smoke test,
// keeping its shape (scheme, store, planes, churn kind).
func (w workload) scaled(n int) workload {
	f := float64(n) / float64(w.n)
	shrink := func(v, floor int) int {
		if v == 0 {
			return 0
		}
		if s := int(float64(v) * f); s > floor {
			return s
		}
		return floor
	}
	w.live = shrink(w.live, 16)
	if w.live > n {
		w.live = n
	}
	w.replace = shrink(w.replace, 4)
	w.classJoins = [2]int{shrink(w.classJoins[0], 4), shrink(w.classJoins[1], 2)}
	w.n = n
	return w
}

// env is one server lifetime: the scheme, the server on loopback, its
// store and metrics, and the attached members.
type env struct {
	w   workload
	rng *rand.Rand
	clk benchClock

	scheme core.Scheme
	srv    *server.Server
	st     *store.Store
	stDir  string
	reg    *metrics.Registry
	addr   string

	// arrived counts frames read by any probe (and epochs seen by any
	// subscriber); readers tracks the probes' reader goroutines.
	arrived atomic.Int64
	readers sync.WaitGroup

	subs    []*server.Client // datagram subscribers (udp workload)
	subSeen []subSeen

	// members are the probes the server currently holds connections for;
	// connected is their count by the server's own arithmetic.
	members   []*probe
	connected int
	// ops counts RekeyNow calls, which is what the server's snapshot
	// cadence counts.
	ops int
	// pendingJoin are probes whose join is sent but not yet admitted.
	pendingJoin []*probe
	// joinsCarried counts joins that missed the epoch they were sent for.
	joinsCarried int

	// The server's received-frame counters and their values at the last
	// barrier (see waitRegistered).
	joinCtr, leaveCtr           *metrics.Counter
	barrierJoins, barrierLeaves uint64
}

// subSeen is one datagram subscriber's epoch-hook record.
type subSeen struct {
	mu    sync.Mutex
	epoch uint64
	at    time.Duration
}

const framesHelp = "Frames received from clients by message type."

// newEnv builds the scheme with its phantom population, starts the server
// and attaches the initial members: everything a run needs before its
// first measured epoch. scratch is where a durable workload keeps state.
func newEnv(w workload, seed int64, scratch string) (*env, error) {
	e := &env{w: w, rng: rand.New(rand.NewSource(seed)), clk: benchClock{base: time.Now()}}
	e.reg = metrics.NewRegistry()
	workers := core.WithRekeyWorkers(0) // GOMAXPROCS, keyserverd's default

	cfg := w.schemeConfig()
	var err error
	if w.durable {
		e.stDir = filepath.Join(scratch, "state")
		if err := os.RemoveAll(e.stDir); err != nil {
			return nil, err
		}
		e.st, err = store.Open(e.stDir, store.Options{
			Fsync:         store.FsyncAlways,
			Metrics:       store.NewMetrics(e.reg),
			SchemeOptions: []core.Option{workers},
		})
		if err != nil {
			return nil, err
		}
		if _, err := e.st.Recover(); err != nil {
			return nil, err
		}
		if e.scheme, err = e.st.Create(cfg); err != nil {
			return nil, err
		}
		e.srv = server.NewWithKey(e.scheme, nil, e.st.SigningKey())
		e.srv.Persist(e.st, snapshotEvery)
	} else {
		if e.scheme, err = cfg.Build(workers); err != nil {
			return nil, err
		}
		e.srv = server.New(e.scheme, nil)
	}

	joins, leaves := w.phantomBatches()
	for _, b := range []core.Batch{joins, leaves} {
		if b.IsEmpty() {
			continue
		}
		if err := e.apply(b); err != nil {
			return nil, err
		}
	}
	e.srv.SetNextID(keytree.MemberID(w.n + 1))
	e.srv.Instrument(server.NewMetrics(e.reg, nil))
	e.joinCtr = e.reg.Counter("groupkey_frames_received_total", framesHelp, metrics.Label{Name: "type", Value: wire.MsgJoin.String()})
	e.leaveCtr = e.reg.Counter("groupkey_frames_received_total", framesHelp, metrics.Label{Name: "type", Value: wire.MsgLeave.String()})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = ln.Addr().String()
	if w.udpSubs > 0 {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			ln.Close()
			return nil, err
		}
		// Seeded send-side loss: the plane serializes calls to Drop.
		lossRng := rand.New(rand.NewSource(seed ^ 0x5eed))
		e.srv.ServeUDP(pc, server.UDPConfig{MinParity: fecParity, MaxParity: fecParity, Drop: func() bool { return lossRng.Float64() < w.udpLoss }})
	}
	e.srv.Serve(ln)

	if err := e.attachInitial(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// apply runs one batch straight through the scheme, journaling it first
// when the workload is durable (the store's entropy source only yields
// inside a journaled operation).
func (e *env) apply(b core.Batch) error {
	if e.st != nil {
		if err := e.st.JournalBatch(b); err != nil {
			return err
		}
	}
	_, err := e.scheme.ProcessBatch(b)
	return err
}

// attachInitial connects the starting members through the real server.
func (e *env) attachInitial() error {
	if err := e.attachSubscribers(); err != nil {
		return err
	}
	for i := 0; i < e.w.live; i++ {
		if _, err := e.join(e.w.twoClass); err != nil {
			return err
		}
	}
	if err := e.waitRegistered(uint64(e.w.live), 0); err != nil {
		return err
	}
	// One epoch admits the probes; a two-partition scheme then gets K+1
	// heartbeat epochs so everyone admitted so far finishes the S-period
	// and the measured phase starts with a settled L tree instead of one
	// mass migration.
	epochs := 1
	if e.w.tt {
		epochs += ttK + 1
	}
	for i := 0; i < epochs || len(e.pendingJoin) > 0; i++ {
		ep, err := e.runEpoch(nil)
		if err != nil {
			return err
		}
		if ep.failed > 0 {
			return fmt.Errorf("setup epoch %d: %d members failed: %v", ep.epoch, ep.failed, ep.firstErr)
		}
	}
	if e.w.twoClass {
		// The initial members are the long class in steady state: their
		// departures are spread evenly over one long lifetime.
		for i, p := range e.members {
			p.leaveAt = e.ops + 1 + i*longLife/len(e.members)
		}
	}
	return nil
}

// attachSubscribers admits the datagram subscribers (the repo's own
// client: only it can receive the datagram plane) and subscribes them,
// before any probe exists.
func (e *env) attachSubscribers() error {
	if e.w.udpSubs == 0 {
		return nil
	}
	// server.Dial blocks until admission, so the dials run concurrently
	// and RekeyNow is called until each has been admitted.
	type dialed struct {
		c   *server.Client
		err error
	}
	ch := make(chan dialed, e.w.udpSubs)
	for i := 0; i < e.w.udpSubs; i++ {
		go func() {
			c, err := server.Dial(e.addr, wire.JoinRequest{LossRate: e.w.udpLoss, LongLived: true, Caps: wire.CapDatagram}, deliveryTimeout)
			ch <- dialed{c, err}
		}()
	}
	if err := e.waitRegistered(uint64(e.w.udpSubs), 0); err != nil {
		return err
	}
	var firstErr error
	for len(e.subs) < e.w.udpSubs && firstErr == nil {
		if _, err := e.srv.RekeyNow(); err != nil {
			return err
		}
		e.ops++
		for admitted := true; admitted && len(e.subs) < e.w.udpSubs; {
			select {
			case d := <-ch:
				if d.err != nil {
					firstErr = d.err
				}
				e.subs = append(e.subs, d.c)
			case <-time.After(10 * time.Millisecond):
				admitted = false // a join missed that rekey; run another
			}
		}
	}
	if firstErr != nil {
		for len(e.subs) < e.w.udpSubs {
			e.subs = append(e.subs, (<-ch).c)
		}
		return fmt.Errorf("subscriber dial: %w", firstErr)
	}

	e.subSeen = make([]subSeen, len(e.subs))
	udpAddr := e.srv.UDPAddr().String()
	for i, c := range e.subs {
		s := &e.subSeen[i]
		c.SetEpochHook(func(epoch uint64) {
			s.mu.Lock()
			fresh := epoch > s.epoch
			if fresh {
				s.epoch, s.at = epoch, e.clk.now()
			}
			s.mu.Unlock()
			if fresh {
				e.arrived.Add(1)
			}
		})
		if err := c.EnableDatagram(udpAddr, nackDelay, 0); err != nil {
			return err
		}
	}
	subscribed := e.reg.Gauge("groupkey_udp_subscribers", "Members currently subscribed to the datagram rekey plane.")
	deadline := time.Now().Add(deliveryTimeout)
	for subscribed.Value() < float64(len(e.subs)) {
		if time.Now().After(deadline) {
			return fmt.Errorf("datagram subscriptions: %v of %d registered", subscribed.Value(), len(e.subs))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// join attaches one more probe; it is admitted by the next epoch.
func (e *env) join(long bool) (*probe, error) {
	p, err := dialProbe(e.addr, long, e.clk, &e.arrived, &e.readers)
	if err != nil {
		return nil, err
	}
	e.pendingJoin = append(e.pendingJoin, p)
	return p, nil
}

// waitRegistered is the batch barrier: it returns once the server has
// counted joins more join frames and leaves more leave frames than the
// counters' values at the previous barrier. No sleep-and-hope: the
// counters are the ones keyserverd exports with -metrics.
func (e *env) waitRegistered(joins, leaves uint64) error {
	wantJ, wantL := e.barrierJoins+joins, e.barrierLeaves+leaves
	deadline := time.Now().Add(deliveryTimeout)
	for e.joinCtr.Value() < wantJ || e.leaveCtr.Value() < wantL {
		if time.Now().After(deadline) {
			return fmt.Errorf("barrier: %d/%d joins, %d/%d leaves registered",
				e.joinCtr.Value(), wantJ, e.leaveCtr.Value(), wantL)
		}
		time.Sleep(100 * time.Microsecond)
	}
	e.barrierJoins, e.barrierLeaves = wantJ, wantL
	// The counter ticks just before the handler takes the server lock to
	// queue the request. One trip through that lock lets handlers already
	// waiting on it finish; a join that still misses the batch is carried.
	e.srv.Size()
	runtime.Gosched()
	return nil
}

// close stops the server, every member and the store, and waits for the
// goroutines the run started.
func (e *env) close() {
	for _, c := range e.subs {
		if c != nil {
			c.Close()
		}
	}
	e.srv.Close()
	for _, p := range append(e.members, e.pendingJoin...) {
		p.conn.Close() // leavers were closed when they left
	}
	e.readers.Wait()
	for _, c := range e.subs {
		if c != nil {
			<-c.Done()
		}
	}
	e.subs = nil
	if e.st != nil {
		e.st.Close()
	}
}
