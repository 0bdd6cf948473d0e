package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/store"
)

// repeats says how often a measurement that is taken once per run is
// repeated, its median being what the run reports so that one slow
// instance does not decide the metric: at least min times, then on until
// budget is spent or max is reached.
type repeats struct {
	min, max int
	budget   time.Duration
}

var (
	// setup_s: every set-up is from scratch; the last environment is the
	// one the run measures on.
	setupRepeats = repeats{min: 5, max: 9, budget: 2 * time.Second}
	// recovery_s: every crash image is recovered from a fresh copy each
	// time, the images taking turns. A 30 ms recovery (fanout2k) is repeated
	// 61 times, a 1.3 s one (churn100k) three times; five samples of 30 ms
	// did not settle a median.
	recoveryRepeats = repeats{min: 3, max: 61, budget: 3 * time.Second}
)

// run calls fn, which returns the seconds it measured, as often as the
// policy says — or once when once is set (traced and smoke runs do not
// report these metrics) — and returns the samples.
func (r repeats) run(once bool, fn func() (float64, error)) ([]float64, error) {
	var secs []float64
	for spent := 0.0; ; {
		s, err := fn()
		if err != nil {
			return secs, err
		}
		secs = append(secs, s)
		spent += s
		if n := len(secs); once || n >= r.max || (n >= r.min && spent >= r.budget.Seconds()) {
			return secs, nil
		}
	}
}

const (
	// warmupEpochs are run and discarded before measuring.
	warmupEpochs = 5
	// recoveryBatches is how many journaled batches the crash image holds
	// past its snapshot.
	recoveryBatches = 32
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is how many samples stand behind a percentile or mean; Spread is
	// (max-min)/median over the three segment medians of a p50.
	N        int       `json:"n,omitempty"`
	Spread   float64   `json:"spread,omitempty"`
	Segments []float64 `json:"segments,omitempty"`
}

// runResult is one workload run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"measured_s"`
	Epochs    int               `json:"epochs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	CalibMs   [2]float64        `json:"env.calib_ms"`     // SHA-256 spin before, after
	CalibMem  [2]float64        `json:"env.calib_mem_ms"` // memory walk before, after
	Noisy     bool              `json:"noisy"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []string          `json:"checks,omitempty"`
}

// calibrate times two fixed pieces of work, the same before and after a
// workload, so a run whose machine changed speed under it says so: a
// SHA-256 spin (compute-bound) and a chain of dependent loads scattered
// over 32 MiB (memory-bound — on this box the neighbours' memory traffic
// slows the tree and the collector while the spin notices nothing). Each
// is the fastest of three, so a cold first pass is not read as drift.
func calibrate() (cpuMs, memMs float64) {
	fastest := func(fn func()) float64 {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			fn()
			if d := ms(time.Since(start)); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	buf := make([]byte, 4096)
	cpuMs = fastest(func() {
		for i := 0; i < 8000; i++ {
			sum := sha256.Sum256(buf)
			copy(buf, sum[:])
		}
	})
	// The next address mixes in the word just loaded (always 0), so no
	// load can start before the previous one has come back.
	mem := make([]uint32, 8<<20)
	for i := 0; i < len(mem); i += 1024 {
		mem[i] = 0 // fault every page in
	}
	at := uint32(1)
	memMs = fastest(func() {
		for i := 0; i < 1<<18; i++ {
			at = (at*1664525 + 1013904223 + mem[at&(8<<20-1)])
		}
	})
	runtime.KeepAlive(at)
	return cpuMs, memMs
}

// drifted reports whether two calibration readings are over 10% apart.
func drifted(a, b float64) bool { return a > b*1.1 || b > a*1.1 }

// options are the knobs a caller (the command line, the smoke test) sets.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	scratch string // state directories and crash images
	outDir  string // traces and result documents
	// maxEpochs, when > 0, ends the measured phase after that many epochs
	// instead of after seconds (the smoke test).
	maxEpochs int
}

// runWorkload runs one workload once and reports every metric of its
// mode: the end-to-end set untraced, the per-layer set traced.
func runWorkload(w workload, o options) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Traced: o.traced, Metrics: map[string]metric{}}
	scratch := filepath.Join(o.scratch, w.name)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// A smoke run (maxEpochs) sets up once and skips the calibration spins.
	smoke := o.maxEpochs > 0
	if !smoke {
		res.CalibMs[0], res.CalibMem[0] = calibrate()
	}

	// Set-up, repeated: only the last environment is measured on.
	once := o.traced || smoke
	var e *env
	setups, err := setupRepeats.run(once, func() (float64, error) {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		e, err = newEnv(w, o.seed, scratch)
		return time.Since(start).Seconds(), err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer func() { e.close() }()

	note := func(ep *epochResult) {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		if ep.firstErr != nil && len(res.Errors) < 8 {
			res.Errors = append(res.Errors, ep.firstErr.Error())
		}
	}
	for i := 0; i < warmupEpochs; i++ {
		ep, err := e.runEpoch(e.nextPlan())
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		note(ep)
	}

	var tr *tracer
	if o.traced {
		var err error
		if tr, err = newTracer(e, scratch, o.seconds, o.maxEpochs); err != nil {
			return nil, fmt.Errorf("%s: tracer: %w", w.name, err)
		}
		defer tr.close()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var eps []*epochResult
	var images []crashImage
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for {
		if o.maxEpochs > 0 {
			if len(eps) >= o.maxEpochs {
				break
			}
		} else if time.Since(start)-tr.pausedFor() >= budget && (!w.durable || e.ops%snapshotEvery == recoveryBatches) {
			// A durable run ends recoveryBatches past a snapshot, so the
			// crash image always replays the same number of batches.
			break
		}
		if !once && w.durable && e.ops > snapshotEvery && e.ops%snapshotEvery == recoveryBatches {
			// Where a run may end it also takes a crash image on its way:
			// what 32 batches cost to replay differs by a third from one
			// stretch of a run to the next, and one stretch decided the metric.
			img, err := takeImage(e, filepath.Join(scratch, fmt.Sprintf("image%d", len(images))))
			if err != nil {
				return nil, fmt.Errorf("%s: crash image: %w", w.name, err)
			}
			images = append(images, img)
		}
		ep, err := tr.epoch(e, len(eps))
		if err != nil {
			return nil, fmt.Errorf("%s: epoch %d: %w", w.name, len(eps), err)
		}
		note(ep)
		ep.rekey, eps = nil, append(eps, ep) // the payload is only needed by the replay
	}
	res.Seconds = (time.Since(start) - tr.pausedFor()).Seconds()
	res.Epochs = len(eps)
	runtime.ReadMemStats(&m1)
	goroutines := runtime.NumGoroutine()
	runtime.GC()
	runtime.GC() // twice: finalizers queued by the first free what they guard
	var mEnd runtime.MemStats
	runtime.ReadMemStats(&mEnd)

	rec, err := measureRecovery(e, scratch, images, once)
	if err != nil {
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
	}
	if !smoke {
		res.CalibMs[1], res.CalibMem[1] = calibrate()
	}
	res.Noisy = drifted(res.CalibMs[0], res.CalibMs[1]) || drifted(res.CalibMem[0], res.CalibMem[1])

	if o.traced {
		if err := tr.report(res, eps, m0, m1, goroutines); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(o.outDir, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
		endToEnd(res, w, eps, rec, m0, m1, mEnd)
	}
	engagement(res, e, rec)
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Errors = append(res.Errors, "no member-epoch pair was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd fills in the metrics a user of the key server would see.
func endToEnd(res *runResult, w workload, eps []*epochResult, rec recovery, m0, m1, mEnd runtime.MemStats) {
	n := len(eps)
	rekey := make([]float64, n)
	converge := make([]float64, n)
	wraps := make([]float64, n)
	deliver := make([][]float64, n)
	join := make([][]float64, n)
	ready := make([][]float64, n)
	data := make([][]float64, n)
	bytes := make([][]float64, n)
	for i, ep := range eps {
		rekey[i], converge[i], wraps[i] = ep.rekeyMs, ep.convergeMs, float64(ep.wraps)
		deliver[i] = ep.deliver
		if w.udpSubs > 0 {
			deliver[i] = ep.subDeliver
		}
		join[i], ready[i], data[i], bytes[i] = ep.join, ep.readyUs, ep.data, ep.wireBytes
	}
	p50 := func(name, unit string, perEpoch [][]float64) {
		v, spread, n, segs := segmented(perEpoch, 0.5)
		res.Metrics[name] = metric{Value: v, Unit: unit, N: n, Spread: spread, Segments: segs}
	}
	p50("rekey_ms_p50", "ms", scalars(rekey))
	p50("deliver_ms_p50", "ms", deliver)
	p50("converge_ms_p50", "ms", scalars(converge))
	p50("join_ms_p50", "ms", join)
	p50("member_ready_us_p50", "us", ready)
	p50("data_deliver_ms_p50", "ms", data)
	res.Metrics["wraps_per_epoch"] = metric{Value: mean(wraps), Unit: "count", N: n}
	flat := flatten(bytes)
	res.Metrics["wire_bytes_per_member"] = metric{Value: mean(flat), Unit: "B", N: len(flat)}
	res.Metrics["alloc_mb_per_epoch"] = metric{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(n), Unit: "MB", N: n}
	res.Metrics["heap_mb"] = metric{Value: float64(mEnd.HeapAlloc) / (1 << 20), Unit: "MB", N: 1}
	res.Metrics["recovery_s"] = metric{Value: rec.seconds, Unit: "s", N: rec.reps}
}

// recovery is the outcome of restarting from the crash image.
type recovery struct {
	seconds     float64 // median over reps recoveries
	reps        int
	batches     int    // WAL batches replayed past the snapshot
	snapshotSeq uint64 // WAL sequence the loaded snapshot covered
}

// crashImage is a state directory as a crash would leave it, and what the
// scheme it belonged to held at that moment.
type crashImage struct {
	dir  string
	key  keycrypt.Key
	size int
}

// takeImage copies the live state directory, between two epochs, to dir.
func takeImage(e *env, dir string) (crashImage, error) {
	img := crashImage{dir: dir}
	err := e.srv.BootstrapState(func(sc core.Scheme, _ keytree.MemberID) error {
		// The lock keeps the live scheme still while it is read.
		var err error
		img.key, err = sc.GroupKey()
		img.size = sc.Size()
		return err
	})
	if err != nil {
		return img, err
	}
	return img, copyDir(e.stDir, dir)
}

// measureRecovery times store.Open + Recover on copies of the crash images
// — those taken during the run and, last, the state directory as the run
// left it — and reports the median; each recovered scheme must agree with
// the one that kept running. A workload without a store first writes the
// image a durable server of its group would have: a snapshot of the live
// scheme plus recoveryBatches journaled batches of its own churn.
func measureRecovery(e *env, scratch string, images []crashImage, once bool) (recovery, error) {
	var rec recovery
	take := writeImage
	if e.st != nil {
		take = takeImage
	}
	last, err := take(e, filepath.Join(scratch, "image"))
	if err != nil {
		return rec, fmt.Errorf("crash image: %w", err)
	}
	images = append(images, last)

	// Recover from a fresh copy each time: recovery tidies the directory
	// it runs on. The final image goes first, so a single recovery is of
	// it, and every image has a turn.
	turn := len(images) - 1
	policy := recoveryRepeats
	policy.min = max(policy.min, len(images))
	secs, err := policy.run(once, func() (float64, error) {
		img := images[turn]
		turn = (turn + len(images) - 1) % len(images)
		crash := filepath.Join(scratch, "crash")
		if err := copyDir(img.dir, crash); err != nil {
			return 0, err
		}
		// Like an epoch, a recovery starts from a collected heap: otherwise
		// the collector lands in every fourth 30 ms recovery and marks the
		// benchmark's own probes there, which costs it half as much again.
		runtime.GC()
		got, sec, err := recoverDir(crash)
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		if img.dir == last.dir {
			rec.batches, rec.snapshotSeq = got.ReplayedBatches, got.SnapshotSeq
		}
		if got.Scheme == nil {
			return 0, fmt.Errorf("recover: no scheme in the crash image")
		}
		gk, err := got.Scheme.GroupKey()
		if err != nil {
			return 0, err
		}
		if !gk.Equal(img.key) || got.Scheme.Size() != img.size {
			return 0, fmt.Errorf("recovered scheme differs: size %d vs %d, group key match %v",
				got.Scheme.Size(), img.size, gk.Equal(img.key))
		}
		return sec, nil
	})
	rec.seconds, rec.reps = median(secs), len(secs)
	return rec, err
}

// recoverDir times store.Open + Recover on a state directory.
func recoverDir(dir string) (*store.RecoveryResult, float64, error) {
	start := time.Now()
	st, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	got, err := st.Recover()
	return got, time.Since(start).Seconds(), err
}

// engagement asserts that the run exercised what its workload exists to
// exercise, from the server's and store's own exported counters: a
// datagram workload that sent no parity, or a durable one whose WAL and
// snapshots do not add up, measured something else.
func engagement(res *runResult, e *env, rec recovery) {
	check := func(ok bool, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		if !ok {
			res.Failed++
			res.Errors = append(res.Errors, "engagement: "+msg)
			return
		}
		res.Checks = append(res.Checks, msg)
	}
	count := func(name string) uint64 { return e.reg.Counter(name, "").Value() }
	if e.w.udpSubs > 0 {
		packets, parity := count("groupkey_udp_packets_sent_total"), count("groupkey_udp_parity_sent_total")
		check(packets > 0 && parity > 0, "datagram plane sent %d packets, %d of them parity", packets, parity)
	}
	if e.st != nil {
		// One create record, the phantom batches, then one batch per RekeyNow.
		direct := 0
		if joins, _ := e.w.phantomBatches(); !joins.IsEmpty() {
			direct = 2
		}
		want := uint64(1 + direct + e.ops)
		appends := count("groupkey_wal_appends_total")
		check(appends == want, "WAL appends %d, journaled operations %d", appends, want)
		snaps := e.ops / snapshotEvery
		wantSeq, replayed := uint64(0), direct+e.ops
		if snaps > 0 {
			wantSeq = uint64(1 + direct + snaps*snapshotEvery)
			replayed = e.ops % snapshotEvery
		}
		check(rec.snapshotSeq == wantSeq && rec.batches == replayed,
			"%d snapshots in %d epochs: recovery loaded seq %d (want %d) and replayed %d batches",
			snaps, e.ops, rec.snapshotSeq, wantSeq, rec.batches)
	} else {
		check(rec.batches == recoveryBatches, "recovery replayed %d batches of %d", rec.batches, recoveryBatches)
	}
}

// writeImage builds a durable twin of the live scheme in dir,
// recoveryBatches past its snapshot, and returns it as a crash image.
func writeImage(e *env, dir string) (crashImage, error) {
	img := crashImage{dir: dir}
	var blob []byte
	var nextID keytree.MemberID
	err := e.srv.BootstrapState(func(sc core.Scheme, next keytree.MemberID) error {
		var err error
		blob, err = sc.Snapshot()
		nextID = next
		return err
	})
	if err != nil {
		return img, err
	}
	st, twin, err := durableTwin(dir, e.w.schemeConfig(), nextID, blob)
	if err != nil {
		return img, err
	}
	defer st.Close()
	members := twin.Members()
	for i := 0; i < recoveryBatches; i++ {
		var b core.Batch
		for _, j := range e.rng.Perm(len(members))[:e.w.replace] {
			b.Leaves = append(b.Leaves, members[j])
			members[j] = nextID
			b.Joins = append(b.Joins, core.Join{ID: nextID, Meta: core.MemberMeta{LossRate: -1}})
			nextID++
		}
		if err := st.JournalBatch(b); err != nil {
			return img, err
		}
		if _, err := twin.ProcessBatch(b); err != nil {
			return img, err
		}
	}
	img.size = twin.Size()
	img.key, err = twin.GroupKey()
	return img, err
}

// durableTwin opens a fresh store in dir seeded with a scheme snapshot and
// returns the scheme restored onto that store's journaled entropy. The
// Create first teaches the store the construction recipe, which a snapshot
// blob does not carry (the planner setting).
func durableTwin(dir string, cfg store.SchemeConfig, nextID keytree.MemberID, blob []byte) (*store.Store, core.Scheme, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir, store.Options{
		Fsync:         store.FsyncAlways,
		SchemeOptions: []core.Option{core.WithRekeyWorkers(0)},
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err = st.Recover(); err == nil {
		_, err = st.Create(cfg)
	}
	var twin core.Scheme
	if err == nil {
		twin, err = st.InstallSnapshot(1, nextID, blob)
	}
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, twin, nil
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o700); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue // a state directory is flat
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
