package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// PerfConfig parameterizes the rekey-throughput benchmark.
type PerfConfig struct {
	// Seed feeds the deterministic entropy source, so every run mints
	// identical keys.
	Seed uint64
	// Sizes are the group sizes to measure.
	Sizes []int
	// Churn is the number of leave+join replacements per measured batch.
	Churn int
	// Batches is how many measured batches to run per size.
	Batches int
	// Workers is the wrap-emission worker count (0 = GOMAXPROCS).
	Workers int
}

// DefaultPerfConfig matches the acceptance benchmark: N = 10k and 100k with
// a 256-replacement churn batch, roughly the paper's periodic-batch regime.
func DefaultPerfConfig() PerfConfig {
	return PerfConfig{Seed: 1, Sizes: []int{10000, 100000}, Churn: 256, Batches: 12}
}

// PerfResult is one group size's measurement, JSON-shaped for
// BENCH_rekey.json.
type PerfResult struct {
	Variant     string  `json:"variant"` // "parallel": the plan/emit engine
	GroupSize   int     `json:"group_size"`
	Churn       int     `json:"churn_per_batch"`
	Batches     int     `json:"batches"`
	Keys        int     `json:"keys_wrapped"`
	Seconds     float64 `json:"seconds"`
	KeysPerSec  float64 `json:"keys_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_key"`
	Workers     int     `json:"workers"`
}

// PerfReport is the full benchmark artifact.
type PerfReport struct {
	Config  PerfConfig   `json:"config"`
	GOMAXPR int          `json:"gomaxprocs"`
	Results []PerfResult `json:"results"`
	// Fanout prices full-blob vs sparse broadcast bytes per member.
	Fanout []FanoutResult `json:"fanout,omitempty"`
	// SparseReduction maps "N=<size>" to full/sparse bytes-per-member —
	// the series the benchgate -min-sparse-reduction floor is checked on.
	SparseReduction map[string]float64 `json:"sparse_reduction,omitempty"`
	// Planner is the greedy-vs-planner wraps/batch series on the
	// flash-crowd trace, one row per batch regime plus "overall".
	Planner []PlannerResult `json:"planner,omitempty"`
	// PlannerReduction maps each regime to its wraps reduction percent —
	// the series the benchgate -min-planner-reduction floor is checked on.
	PlannerReduction map[string]float64 `json:"planner_reduction,omitempty"`
}

// measureRekey builds a tree of the given size and times Churn-replacement
// batches, reporting keys/sec over wrap emission and allocations per
// wrapped key. Only Rekey calls are timed; batch construction is harness.
func measureRekey(cfg PerfConfig, size int, opts ...keytree.Option) (PerfResult, error) {
	opts = append([]keytree.Option{WithPerfRand(cfg.Seed)}, opts...)
	tr, err := keytree.New(4, opts...)
	if err != nil {
		return PerfResult{}, err
	}
	prime := keytree.Batch{}
	for i := 1; i <= size; i++ {
		prime.Joins = append(prime.Joins, keytree.MemberID(i))
	}
	if _, err := tr.Rekey(prime); err != nil {
		return PerfResult{}, err
	}

	// Pre-build every batch so the timed region is pure Rekey. Leaves walk
	// a fixed stride through a local membership image that is updated as each
	// batch is planned, so later batches never name already-departed members.
	members := tr.Members()
	next := keytree.MemberID(size + 1)
	batches := make([]keytree.Batch, cfg.Batches)
	for bi := range batches {
		b := keytree.Batch{}
		for j := 0; j < cfg.Churn; j++ {
			slot := (j*997 + bi*13) % len(members)
			b.Leaves = append(b.Leaves, members[slot])
			b.Joins = append(b.Joins, next)
			members[slot] = next
			next++
		}
		batches[bi] = b
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	keys := 0
	start := time.Now()
	for _, b := range batches {
		p, err := tr.Rekey(b)
		if err != nil {
			return PerfResult{}, err
		}
		keys += p.TotalKeyCount()
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)

	allocs := float64(ms1.Mallocs - ms0.Mallocs)
	return PerfResult{
		GroupSize:   size,
		Churn:       cfg.Churn,
		Batches:     cfg.Batches,
		Keys:        keys,
		Seconds:     elapsed,
		KeysPerSec:  float64(keys) / elapsed,
		AllocsPerOp: allocs / float64(keys),
	}, nil
}

// WithPerfRand is the entropy option used by both perf variants.
func WithPerfRand(seed uint64) keytree.Option {
	return keytree.WithRand(keycrypt.NewDeterministicReader(seed))
}

// RekeyPerf measures the rekey engine's throughput per group size, prices
// fan-out bytes per member, and runs the planner series; it returns the
// table plus the JSON report.
func RekeyPerf(cfg PerfConfig) (*Table, *PerfReport, error) {
	t := &Table{
		ID:      "perf",
		Title:   "Rekey throughput of the plan/emit engine",
		Columns: []string{"N", "churn", "keys/sec", "allocs/key"},
	}
	report := &PerfReport{
		Config:          cfg,
		GOMAXPR:         runtime.GOMAXPROCS(0),
		SparseReduction: make(map[string]float64),
	}
	for _, size := range cfg.Sizes {
		r, err := measureRekey(cfg, size, keytree.WithWrapWorkers(cfg.Workers))
		if err != nil {
			return nil, nil, fmt.Errorf("N=%d: %w", size, err)
		}
		r.Variant = "parallel"
		r.Workers = cfg.Workers
		if r.Workers <= 0 {
			r.Workers = runtime.GOMAXPROCS(0)
		}
		report.Results = append(report.Results, r)
		t.AddRow(fmt.Sprint(size), fmt.Sprint(cfg.Churn),
			fmt.Sprintf("%.0f", r.KeysPerSec), fmt.Sprintf("%.1f", r.AllocsPerOp))

		fo, err := measureFanout(cfg, size)
		if err != nil {
			return nil, nil, fmt.Errorf("fanout N=%d: %w", size, err)
		}
		report.Fanout = append(report.Fanout, fo)
		report.SparseReduction[fmt.Sprintf("N=%d", size)] = fo.Reduction
		t.AddNote("fan-out N=%d: full blob %.0f B/member, sparse mean %.1f B/member (%.1fx reduction).",
			size, fo.FullBytesPerMember, fo.SparseBytesPerMember, fo.Reduction)
	}
	planner, stats, err := PlannerPerf(DefaultPlannerPerfConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("planner series: %w", err)
	}
	report.Planner = planner
	report.PlannerReduction = make(map[string]float64, len(planner))
	for _, pr := range planner {
		report.PlannerReduction[pr.Regime] = pr.ReductionPct
		t.AddNote("planner %s: %d batches, %.1f -> %.1f wraps/batch (%.2f%% fewer).",
			pr.Regime, pr.Batches, pr.GreedyPerBatch, pr.PlannerPerBatch, pr.ReductionPct)
	}
	t.AddNote("planner chose a non-greedy placement on %d/%d evaluated batches.",
		stats.PlannedBatches, stats.PlannedBatches+stats.GreedyFallbacks)

	t.AddNote("plan/emit engine: cached key schedules, path-addressed items, %d wrap workers;", report.GOMAXPR)
	t.AddNote("payloads are byte-identical for every worker count (keytree determinism and golden tests).")
	return t, report, nil
}

// WritePerfReport writes the JSON artifact consumed by CI.
func WritePerfReport(path string, report *PerfReport) error {
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
