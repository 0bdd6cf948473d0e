// Package loadgen drives a live key server with thousands of concurrent
// synthetic members to measure rekey delivery under churn and overload.
//
// Each configured member slot runs a join → stay → leave loop forever:
// the stay is drawn from a workload duration model (optionally
// time-compressed so hours of churn replay in seconds), joins honor the
// server's MsgRetry admission deferrals with backoff, and unexpected
// disconnects either resume the saved session or rejoin fresh. A shared
// collector aggregates join latency, rekey delivery spread, missed
// epochs, and protocol errors into a machine-readable Report
// (SOAK_report.json) that CI gates on.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"groupkey/internal/metrics"
	"groupkey/internal/server"
	"groupkey/internal/wire"
	"groupkey/internal/workload"
)

// Config parameterizes one load/soak run.
type Config struct {
	// Addr is the key server's TCP address. For a replicated cluster, use
	// Addrs instead (Addr is kept as the single-server convenience).
	Addr string
	// Addrs lists every cluster node's client address. Slots spread their
	// dials across the list and rotate to the next node when one stops
	// answering, so a failover mid-run only costs the affected dials their
	// backoff, not the whole population.
	Addrs []string
	// AddrMap rewrites cluster redirect targets onto the member-local
	// path: keys are addresses the cluster advertises in redirects, values
	// the addresses this fleet must dial instead (its region proxy front).
	// Entries in Addrs are used as-is; only redirect targets are mapped.
	AddrMap map[string]string
	// Scenario and Region label the run for the report (chaos harness
	// bookkeeping; empty is fine).
	Scenario string
	Region   string
	// Members is the number of concurrent member slots to sustain.
	Members int
	// Groups spreads the member slots round-robin across hosted groups
	// 0..Groups-1 on a multi-group server (0 or 1 = default group only).
	Groups int
	// Duration bounds the run (0 = until the context is cancelled).
	Duration time.Duration
	// Seed makes the churn schedule reproducible.
	Seed uint64
	// FaultPlanHash records the canonical hash of the fault plan the
	// surrounding harness is injecting (empty = no plan). It is echoed
	// into the report for replay bookkeeping; loadgen itself injects no
	// faults.
	FaultPlanHash string
	// Churn samples each session's stay duration. Zero value selects the
	// paper's two-class model compressed so mean stays are ~2s.
	Churn workload.TwoClass
	// LossRate is reported in every join request (negative = unknown).
	LossRate float64
	// UDPAddr subscribes every admitted session to the server's datagram
	// rekey plane at this address (empty = TCP delivery only).
	UDPAddr string
	// JoinTimeout bounds each join/resume handshake.
	JoinTimeout time.Duration
	// RampPerSec staggers initial slot starts to this many joins/second
	// (0 = all slots start immediately).
	RampPerSec float64
	// Resume saves session state and resumes after unexpected
	// disconnects instead of rejoining fresh.
	Resume bool
	// MinStay floors sampled stays so compressed models cannot produce
	// zero-length sessions.
	MinStay time.Duration
}

func (c Config) withDefaults() Config {
	if len(c.Addrs) == 0 && c.Addr != "" {
		c.Addrs = []string{c.Addr}
	}
	if c.Addr == "" && len(c.Addrs) > 0 {
		c.Addr = strings.Join(c.Addrs, ",")
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 30 * time.Second
	}
	if c.MinStay <= 0 {
		c.MinStay = 100 * time.Millisecond
	}
	if c.Churn.Short == nil || c.Churn.Long == nil {
		// Paper model compressed 100×: mean short stay 1.8s, long 108s.
		c.Churn = workload.PaperDefault().Compressed(100)
	}
	if c.LossRate == 0 {
		c.LossRate = -1
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	return c
}

// rewrite builds the redirect-target rewrite for DialGroupVia/ResumeDialVia
// (nil when no AddrMap is configured).
func (c Config) rewrite() func(string) string {
	if len(c.AddrMap) == 0 {
		return nil
	}
	m := c.AddrMap
	return func(addr string) string {
		if to, ok := m[addr]; ok {
			return to
		}
		return addr
	}
}

// Runner executes one load/soak run.
type Runner struct {
	cfg     Config
	rewrite func(string) string
	col     collector
}

// New builds a runner; zero-valued Config fields pick defaults.
func New(cfg Config) *Runner {
	r := &Runner{cfg: cfg.withDefaults()}
	r.rewrite = r.cfg.rewrite()
	r.col.init()
	return r
}

// Run sustains the configured member population until Duration elapses or
// ctx is cancelled, then returns the aggregated report.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	if len(r.cfg.Addrs) == 0 {
		return nil, fmt.Errorf("loadgen: no server address")
	}
	if r.cfg.Members <= 0 {
		return nil, fmt.Errorf("loadgen: members must be positive, got %d", r.cfg.Members)
	}
	if r.cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Duration)
		defer cancel()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < r.cfg.Members; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			r.slot(ctx, idx)
		}(i)
	}
	wg.Wait()
	return r.col.report(r.cfg, time.Since(start)), nil
}

// slot runs one member's join → stay → leave loop until ctx is done. The
// slot index pins the member to one hosted group for the whole run.
func (r *Runner) slot(ctx context.Context, idx int) {
	rng := rand.New(rand.NewPCG(r.cfg.Seed, uint64(idx)+1))
	group := wire.GroupID(idx % r.cfg.Groups)
	if r.cfg.RampPerSec > 0 {
		ramp := time.Duration(float64(idx) / r.cfg.RampPerSec * float64(time.Second))
		if !sleepCtx(ctx, ramp) {
			return
		}
	}
	var state []byte
	for ctx.Err() == nil {
		c := r.connect(ctx, rng, idx, group, &state)
		if c == nil {
			return
		}
		if r.cfg.UDPAddr != "" {
			// Best-effort: TCP delivery still covers the session if the
			// subscription fails, so the slot keeps running either way.
			if err := c.EnableDatagram(r.cfg.UDPAddr, 0, 0); err != nil {
				r.col.noteUDPError(err)
			}
		}
		r.live(ctx, rng, c, &state)
	}
}

// connect joins (or resumes) one session, retrying deferrals and
// transient failures with backoff. Dials spread across the configured
// node addresses and rotate on every retry, so a dead cluster node costs
// one backoff before the slot moves on. A saved session is kept through
// transport failures (the server may be restarting or failing over) and
// dropped only once a server refuses it; the slot then joins afresh.
// Returns nil once ctx is done.
func (r *Runner) connect(ctx context.Context, rng *rand.Rand, idx int, group wire.GroupID, state *[]byte) *server.Client {
	backoff := 100 * time.Millisecond
	for attempt := 0; ctx.Err() == nil; attempt++ {
		addr := r.cfg.Addrs[(idx+attempt)%len(r.cfg.Addrs)]
		if r.cfg.Resume && *state != nil {
			// The saved state carries the slot's group; resume re-addresses it.
			c, err := server.ResumeDialVia(addr, *state, r.cfg.JoinTimeout, r.rewrite)
			switch {
			case err == nil:
				*state = nil
				r.col.noteResume()
				return c
			case errors.Is(err, server.ErrRejected):
				// The saved membership may have been evicted while away.
				*state = nil
				r.col.noteResumeRejected(err)
				continue
			}
			r.col.noteResumeFailure(err)
		} else {
			t0 := time.Now()
			c, err := server.DialGroupVia(addr, group, wire.JoinRequest{LossRate: r.cfg.LossRate}, r.cfg.JoinTimeout, r.rewrite)
			if err == nil {
				r.col.noteJoin(time.Since(t0))
				return c
			}
			var def *server.DeferredError
			if errors.As(err, &def) {
				// Admission deferred, not an error: honor the server's hint
				// (capped so a soak never stalls a slot for long).
				wait := def.After
				if wait > 5*time.Second {
					wait = 5 * time.Second
				}
				r.col.noteJoinDeferred()
				if !sleepCtx(ctx, wait) {
					return nil
				}
				continue
			}
			r.col.noteJoinError(err)
		}
		jitter := time.Duration(rng.Int64N(int64(backoff)))
		if !sleepCtx(ctx, backoff+jitter) {
			return nil
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	return nil
}

// live holds one admitted session open for its sampled stay, tracking
// rekey delivery, then leaves (or records the disconnect).
func (r *Runner) live(ctx context.Context, rng *rand.Rand, c *server.Client, state *[]byte) {
	last := c.Epoch()
	group := c.Group()
	c.SetEpochHook(func(epoch uint64) {
		r.col.observeEpoch(group, epoch)
		if last != 0 && epoch > last+1 {
			r.col.addMissed(epoch - last - 1)
		}
		if epoch > last {
			last = epoch
		}
	})

	_, staySec := r.cfg.Churn.SampleClass(rng)
	stay := time.Duration(staySec * float64(time.Second))
	if stay < r.cfg.MinStay {
		stay = r.cfg.MinStay
	}

	stayTimer := time.NewTimer(stay)
	defer stayTimer.Stop()
	select {
	case <-c.Done():
		// Server-side close: eviction, shutdown, or transport failure.
		r.col.noteDisconnect()
		if r.cfg.Resume {
			if st, err := c.State(); err == nil {
				*state = st
			}
		}
		c.Close()
	case <-stayTimer.C:
		r.leave(c)
	case <-ctx.Done():
		// Run over: leave politely so the server's group drains.
		r.leave(c)
	}
	r.col.harvest(c)
}

// leave ends a session voluntarily; a failed leave write means the
// connection was already dead, which counts as a disconnect.
func (r *Runner) leave(c *server.Client) {
	if err := c.Leave(); err != nil {
		r.col.noteDisconnect()
	} else {
		r.col.noteLeave()
	}
	c.Close()
}

// sleepCtx sleeps d unless ctx ends first; reports whether it slept fully.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// collector aggregates the run's counters and latency histograms. All
// methods are safe for concurrent use by member slots.
type collector struct {
	mu             sync.Mutex
	joins          uint64
	joinsDeferred  uint64
	joinErrors     uint64
	leaves         uint64
	disconnects    uint64
	resumes        uint64
	resumeFailures uint64
	resumeRejected uint64
	missedRekeys   uint64
	protocolErrors uint64
	badSignatures  uint64
	undecryptable  uint64
	active         int
	peakActive     int
	maxEpoch       uint64
	firstSeen      map[groupEpoch]time.Time
	samples        []string

	joinLatency *metrics.Histogram
	rekeySpread *metrics.Histogram
}

// maxErrorSamples caps the error excerpts carried in the report.
const maxErrorSamples = 16

// groupEpoch keys rekey-delivery tracking: epochs advance independently
// per hosted group, so cross-group collisions must not anchor each other.
type groupEpoch struct {
	group wire.GroupID
	epoch uint64
}

func (col *collector) init() {
	col.firstSeen = make(map[groupEpoch]time.Time)
	// Join latency: 1ms–131s; spread: 0.1ms–26s.
	col.joinLatency = metrics.NewHistogram(metrics.ExponentialBuckets(0.001, 2, 18))
	col.rekeySpread = metrics.NewHistogram(metrics.ExponentialBuckets(0.0001, 2, 18))
}

func (col *collector) sampleLocked(kind string, err error) {
	if len(col.samples) < maxErrorSamples {
		col.samples = append(col.samples, kind+": "+err.Error())
	}
}

func (col *collector) noteJoin(d time.Duration) {
	col.joinLatency.Observe(d.Seconds())
	col.mu.Lock()
	defer col.mu.Unlock()
	col.joins++
	col.active++
	if col.active > col.peakActive {
		col.peakActive = col.active
	}
}

func (col *collector) noteJoinDeferred() {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.joinsDeferred++
}

func (col *collector) noteJoinError(err error) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.joinErrors++
	col.sampleLocked("join", err)
}

func (col *collector) noteUDPError(err error) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.sampleLocked("udp", err)
}

func (col *collector) noteResume() {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.resumes++
	col.active++
	if col.active > col.peakActive {
		col.peakActive = col.active
	}
}

func (col *collector) noteResumeFailure(err error) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.resumeFailures++
	col.sampleLocked("resume", err)
}

func (col *collector) noteResumeRejected(err error) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.resumeRejected++
	col.sampleLocked("resume", err)
}

func (col *collector) noteLeave() {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.leaves++
	col.active--
}

func (col *collector) noteDisconnect() {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.disconnects++
	col.active--
}

func (col *collector) addMissed(n uint64) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.missedRekeys += n
}

// observeEpoch records one member's receipt of a rekey: the first
// observer in the member's group anchors the epoch, later ones contribute
// their lag to the delivery-spread histogram.
func (col *collector) observeEpoch(group wire.GroupID, epoch uint64) {
	now := time.Now()
	key := groupEpoch{group, epoch}
	col.mu.Lock()
	t0, seen := col.firstSeen[key]
	if !seen {
		col.firstSeen[key] = now
		if epoch > col.maxEpoch {
			col.maxEpoch = epoch
		}
	}
	col.mu.Unlock()
	if seen {
		col.rekeySpread.Observe(now.Sub(t0).Seconds())
	}
}

// harvest folds a finished session's client-side counters into the run
// totals. Forged signatures and undecryptable payloads are protocol
// errors: a healthy server/member pair never produces them.
func (col *collector) harvest(c *server.Client) {
	bad := uint64(c.BadSignatures())
	und := uint64(c.Undecryptable())
	if bad == 0 && und == 0 {
		return
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	col.badSignatures += bad
	col.undecryptable += und
	col.protocolErrors += bad + und
	if bad > 0 {
		col.sampleLocked("verify", fmt.Errorf("%d frames failed signature verification", bad))
	}
	if und > 0 {
		col.sampleLocked("decrypt", fmt.Errorf("%d data frames undecryptable", und))
	}
}

func summarize(h *metrics.Histogram) LatencySummary {
	s := h.Summary()
	return LatencySummary{
		Count: s.Count,
		Mean:  s.Mean,
		P50:   s.P50,
		P95:   s.P95,
		P99:   s.P99,
		Max:   s.Max,
	}
}

func (col *collector) report(cfg Config, elapsed time.Duration) *Report {
	col.mu.Lock()
	defer col.mu.Unlock()
	return &Report{
		FormatVersion:   ReportFormatVersion,
		Addr:            cfg.Addr,
		Scenario:        cfg.Scenario,
		Region:          cfg.Region,
		Members:         cfg.Members,
		Groups:          cfg.Groups,
		DurationSeconds: elapsed.Seconds(),
		Seed:            cfg.Seed,
		FaultPlanHash:   cfg.FaultPlanHash,
		Joins:           col.joins,
		JoinsDeferred:   col.joinsDeferred,
		JoinErrors:      col.joinErrors,
		Leaves:          col.leaves,
		Disconnects:     col.disconnects,
		Resumes:         col.resumes,
		ResumeFailures:  col.resumeFailures,
		ResumeRejected:  col.resumeRejected,
		RekeysSeen:      uint64(len(col.firstSeen)),
		FinalEpoch:      col.maxEpoch,
		MissedRekeys:    col.missedRekeys,
		ProtocolErrors:  col.protocolErrors,
		BadSignatures:   col.badSignatures,
		Undecryptable:   col.undecryptable,
		PeakActive:      col.peakActive,
		JoinLatency:     summarize(col.joinLatency),
		RekeySpread:     summarize(col.rekeySpread),
		ErrorSamples:    append([]string(nil), col.samples...),
	}
}
