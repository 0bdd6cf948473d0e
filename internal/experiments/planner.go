package experiments

import (
	"fmt"

	"groupkey/internal/keytree"
	"groupkey/internal/workload"
)

// Planner experiment: replay one MBone-like flash-crowd trace (two-class
// churn, Almeroth/Ammar arrival shape) through two trees fed identical
// batch sequences that differ only in placement policy — greedy
// batch-order pairing vs the placement planner — and compare the
// realized multicast wraps per batch. Batches are classified by their
// join/leave mix so the report separates the regimes the planner targets:
// hole-rich shrink batches (J < L), growth batches (J > L), and balanced
// churn (J == L). The per-batch dominance guard makes the planner
// never-worse on any single batch from the same tree state; the gains the
// series shows beyond that come from shape — anchoring joiners under
// interiors the batch already dirties keeps the planner's tree cheaper to
// rekey for every subsequent batch of the trace.

// PlannerPerfConfig parameterizes the greedy-vs-planner comparison.
type PlannerPerfConfig struct {
	// Seed drives both the synthetic trace and the deterministic entropy
	// both trees mint keys from, so the whole series is reproducible.
	Seed uint64
	// Baseline is the steady-state group size the trace orbits.
	Baseline int
	// Horizon is the trace length in seconds.
	Horizon float64
	// Period is the batch-rekey period Tp in seconds: every event inside
	// one period lands in the same batch.
	Period float64
	// Degree is the key-tree degree.
	Degree int
	// Crowd shapes the flash-crowd burst that produces the grow and
	// shrink phases.
	Crowd workload.FlashCrowd
	// Durations is the membership model (zero value = the paper's
	// two-class model compressed 100x, the loadgen default).
	Durations workload.TwoClass
}

// DefaultPlannerPerfConfig is the acceptance configuration: a 1k-member
// session with a 6x flash crowd whose decay produces long hole-rich
// shrink batches, rekeyed on a 90-second batch period.
func DefaultPlannerPerfConfig() PlannerPerfConfig {
	return PlannerPerfConfig{
		Seed:     7,
		Baseline: 1024,
		Horizon:  3600,
		Period:   90,
		Degree:   4,
		Crowd: workload.FlashCrowd{
			Start:  600,
			RampUp: 120,
			Hold:   300,
			Decay:  240,
			Peak:   6,
		},
	}
}

// PlannerResult is one regime's wraps-per-batch comparison, JSON-shaped
// for BENCH_rekey.json.
type PlannerResult struct {
	Regime          string  `json:"regime"` // "grow", "shrink", "steady", "overall"
	Batches         int     `json:"batches"`
	GreedyWraps     int     `json:"greedy_wraps"`
	PlannerWraps    int     `json:"planner_wraps"`
	GreedyPerBatch  float64 `json:"greedy_wraps_per_batch"`
	PlannerPerBatch float64 `json:"planner_wraps_per_batch"`
	// ReductionPct is (greedy − planner)/greedy in percent; positive
	// means the planner multicast fewer encrypted keys.
	ReductionPct float64 `json:"reduction_pct"`
}

// regimeOf classifies a batch by its join/leave mix.
func regimeOf(b keytree.Batch) string {
	switch {
	case len(b.Joins) > len(b.Leaves):
		return "grow"
	case len(b.Joins) < len(b.Leaves):
		return "shrink"
	default:
		return "steady"
	}
}

// traceBatches buckets a membership trace into Period-sized rekey
// batches. A member that joins and leaves inside one period is never
// admitted, so both events are dropped — exactly what a batching key
// server does. Leaves are only emitted for members actually present.
func traceBatches(tr *workload.Trace, period float64) []keytree.Batch {
	present := make(map[keytree.MemberID]bool, len(tr.Primed))
	for _, m := range tr.Primed {
		present[m.ID] = true
	}
	var batches []keytree.Batch
	i := 0
	for bucket := 0; i < len(tr.Events); bucket++ {
		end := float64(bucket+1) * period
		joined := make(map[keytree.MemberID]bool)
		var b keytree.Batch
		for ; i < len(tr.Events) && tr.Events[i].Time < end; i++ {
			ev := tr.Events[i]
			switch ev.Kind {
			case workload.EventJoin:
				if !present[ev.Member] {
					joined[ev.Member] = true
					b.Joins = append(b.Joins, ev.Member)
				}
			case workload.EventLeave:
				if joined[ev.Member] {
					// Joined and left within one period: never admitted.
					delete(joined, ev.Member)
					for k, j := range b.Joins {
						if j == ev.Member {
							b.Joins = append(b.Joins[:k], b.Joins[k+1:]...)
							break
						}
					}
				} else if present[ev.Member] {
					b.Leaves = append(b.Leaves, ev.Member)
				}
			}
		}
		for _, j := range b.Joins {
			present[j] = true
		}
		for _, l := range b.Leaves {
			delete(present, l)
		}
		if len(b.Joins) > 0 || len(b.Leaves) > 0 {
			batches = append(batches, b)
		}
	}
	return batches
}

// PlannerPerf synthesizes the flash-crowd trace, primes a greedy tree and
// a planner tree with the same initial population, replays the identical
// batch sequence through both, and returns per-regime comparisons (ending
// with "overall") plus the planner tree's final stats.
func PlannerPerf(cfg PlannerPerfConfig) ([]PlannerResult, keytree.PlannerStats, error) {
	tr, err := workload.SynthFlashCrowd(workload.FlashCrowdConfig{
		Seed:      cfg.Seed,
		Baseline:  cfg.Baseline,
		Horizon:   cfg.Horizon,
		Crowd:     cfg.Crowd,
		Durations: cfg.Durations,
	})
	if err != nil {
		return nil, keytree.PlannerStats{}, err
	}
	batches := traceBatches(tr, cfg.Period)
	if len(batches) == 0 {
		return nil, keytree.PlannerStats{}, fmt.Errorf("experiments: trace produced no batches")
	}

	greedy, err := keytree.New(cfg.Degree, WithPerfRand(cfg.Seed))
	if err != nil {
		return nil, keytree.PlannerStats{}, err
	}
	planner, err := keytree.New(cfg.Degree,
		WithPerfRand(cfg.Seed), keytree.WithPlanner(keytree.PlannerConfig{}))
	if err != nil {
		return nil, keytree.PlannerStats{}, err
	}
	prime := keytree.Batch{}
	for _, m := range tr.Primed {
		prime.Joins = append(prime.Joins, m.ID)
	}
	if _, err := greedy.Rekey(prime); err != nil {
		return nil, keytree.PlannerStats{}, err
	}
	if _, err := planner.Rekey(prime); err != nil {
		return nil, keytree.PlannerStats{}, err
	}

	type tally struct {
		batches, greedy, planner int
	}
	tallies := map[string]*tally{
		"grow": {}, "shrink": {}, "steady": {}, "overall": {},
	}
	for _, b := range batches {
		pg, err := greedy.Rekey(b)
		if err != nil {
			return nil, keytree.PlannerStats{}, fmt.Errorf("greedy rekey: %w", err)
		}
		pp, err := planner.Rekey(b)
		if err != nil {
			return nil, keytree.PlannerStats{}, fmt.Errorf("planner rekey: %w", err)
		}
		for _, reg := range []string{regimeOf(b), "overall"} {
			t := tallies[reg]
			t.batches++
			t.greedy += pg.MulticastKeyCount()
			t.planner += pp.MulticastKeyCount()
		}
	}

	var out []PlannerResult
	for _, reg := range []string{"grow", "shrink", "steady", "overall"} {
		t := tallies[reg]
		if t.batches == 0 {
			continue
		}
		r := PlannerResult{
			Regime:          reg,
			Batches:         t.batches,
			GreedyWraps:     t.greedy,
			PlannerWraps:    t.planner,
			GreedyPerBatch:  float64(t.greedy) / float64(t.batches),
			PlannerPerBatch: float64(t.planner) / float64(t.batches),
		}
		if t.greedy > 0 {
			r.ReductionPct = 100 * float64(t.greedy-t.planner) / float64(t.greedy)
		}
		out = append(out, r)
	}
	return out, planner.PlannerStats(), nil
}
