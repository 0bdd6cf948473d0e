package dst

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Stats summarizes one run's mechanics.
type Stats struct {
	Rekeys       int           `json:"rekeys"`
	Replicated   int           `json:"replicated"`
	CatchUps     int           `json:"catch_ups"`
	SnapInstalls int           `json:"snapshot_installs"`
	Snapshots    int           `json:"snapshots"`
	Crashes      int           `json:"crashes"`
	Recoveries   int           `json:"recoveries"`
	Promotions   int           `json:"promotions"`
	Fenced       int           `json:"fenced_records"`
	Repairs      int           `json:"repairs"`
	Rejoins      int           `json:"rejoins"`
	MaxSpread    time.Duration `json:"max_spread"`
}

// Result is one simulation run's outcome.
type Result struct {
	Plan       Plan        `json:"plan"`
	PlanHash   string      `json:"plan_hash"`
	TraceHash  string      `json:"trace_hash"`
	StateHash  string      `json:"state_hash"`
	TraceLines int         `json:"trace_lines"`
	Stats      Stats       `json:"stats"`
	Violations []Violation `json:"violations,omitempty"`
	// Trace holds the full event log when the run kept it.
	Trace []string `json:"-"`
}

// Failed reports whether any oracle fired.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes one plan to completion. Identical plans yield identical
// results — same trace hash, same state hash, same violations.
func Run(plan Plan, keepTrace bool) *Result {
	w := newWorld(plan, keepTrace)
	w.run()
	return &Result{
		Plan:       plan,
		PlanHash:   plan.Hash(),
		TraceHash:  w.trace.Hash(),
		StateHash:  w.stateHash(),
		TraceLines: w.trace.Len(),
		Stats:      w.stats,
		Violations: w.vio,
		Trace:      w.trace.Lines,
	}
}

// Artifact is a replayable failure: the shrunk plan plus the hashes that
// pin the failing run, written as JSON next to CI logs.
type Artifact struct {
	Plan       Plan        `json:"plan"`
	PlanHash   string      `json:"plan_hash"`
	Profile    Profile     `json:"profile"`
	TraceHash  string      `json:"trace_hash"`
	StateHash  string      `json:"state_hash"`
	Violations []Violation `json:"violations"`
	// OriginalOps counts the unshrunk plan's fault ops, for context.
	OriginalOps int `json:"original_ops"`
	ShrinkRuns  int `json:"shrink_runs"`
}

// WriteFile saves the artifact as indented JSON.
func (a *Artifact) WriteFile(path string) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadArtifact reads an artifact back.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("dst: decoding artifact %s: %w", path, err)
	}
	return &a, nil
}

// Replay re-runs an artifact's plan and reports whether its outcome
// reproduces. For a failure artifact that means the same violation kinds
// fire again (the trace hash is also comparable when the artifact was
// produced by the same build). An artifact with no recorded violations —
// e.g. a chaos scenario's fault plan archived for bookkeeping — replays
// successfully when the oracles stay green, so a clean plan hash in a
// soak report can be handed to `dstrun -replay` and accepted.
func Replay(a *Artifact, keepTrace bool) (*Result, bool) {
	res := Run(a.Plan, keepTrace)
	if len(a.Violations) == 0 {
		return res, !res.Failed()
	}
	return res, reproduces(res, a.Violations)
}

// reproduces reports whether res failed with every kind of violation in
// want.
func reproduces(res *Result, want []Violation) bool {
	kinds := make(map[ViolationKind]bool)
	for _, v := range want {
		kinds[v.Kind] = true
	}
	for _, v := range res.Violations {
		delete(kinds, v.Kind)
	}
	return res.Failed() && len(kinds) == 0
}

// Explore sweeps seeds under one profile, returning the first failure
// (shrunk into an artifact) and how many seeds passed. A nil artifact
// means every seed passed its oracles.
func Explore(base uint64, seeds int, profile Profile, logf func(string, ...any)) (*Artifact, int) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for i := 0; i < seeds; i++ {
		seed := base + uint64(i)
		plan := GenPlan(seed, profile)
		res := Run(plan, false)
		if !res.Failed() {
			continue
		}
		logf("seed %d (%s): %d violation(s), shrinking from %d ops",
			seed, profile, len(res.Violations), len(plan.Ops))
		shrunk, runs := Shrink(plan, res)
		final := Run(shrunk, false)
		return &Artifact{
			Plan:        shrunk,
			PlanHash:    shrunk.Hash(),
			Profile:     profile,
			TraceHash:   final.TraceHash,
			StateHash:   final.StateHash,
			Violations:  final.Violations,
			OriginalOps: len(plan.Ops),
			ShrinkRuns:  runs,
		}, i
	}
	return nil, seeds
}
