//go:build dst_plantedbug

package dst

import (
	"testing"
	"time"
)

// The planted regressions (-tags dst_plantedbug) re-introduce bugs the
// oracles must catch. Seeded exploration must find each within a bounded
// seed budget, the shrinker must keep the failure while never growing the
// plan, and the artifact must replay from disk.

// TestPlantedFencingBugFoundAndShrunk: a race this codebase actually had,
// a primary trusting its cached promotion between lease ticks instead of
// re-validating ownership before journaling (internal/cluster), so a
// partitioned or stalled ex-primary keeps writing after it was deposed.
func TestPlantedFencingBugFoundAndShrunk(t *testing.T) {
	findShrinkReplay(t, ProfilePartition, ViolationFencing, 60, nil)
}

// TestPlantedMigrationBugFoundAndShrunk: a TT migrant left out of S's
// departure batch (internal/core) is still held by L after it leaves.
func TestPlantedMigrationBugFoundAndShrunk(t *testing.T) {
	findShrinkReplay(t, ProfileCrash, ViolationForwardSecrecy, 60, func(p Plan) bool { return p.Scheme == "tt" })
}

// findShrinkReplay runs the first budget seeds of profile, skipping plans
// keep rejects, until one raises a kind violation, then shrinks and
// replays it.
func findShrinkReplay(t *testing.T, profile Profile, kind ViolationKind, budget uint64, keep func(Plan) bool) {
	t.Helper()
	var (
		found *Result
		plan  Plan
		first Violation
	)
	for seed := uint64(1); seed <= budget && found == nil; seed++ {
		p := GenPlan(seed, profile)
		if keep != nil && !keep(p) {
			continue
		}
		p.Duration = 15 * time.Second
		res := Run(p, false)
		for _, v := range res.Violations {
			if v.Kind == kind {
				found, plan, first = res, p, v
				break
			}
		}
	}
	if found == nil {
		t.Fatalf("planted %s bug not caught within %d seeds", kind, budget)
	}
	t.Logf("caught with seed %d: %s", plan.Seed, first)

	shrunk, runs := Shrink(plan, found)
	t.Logf("shrunk %d -> %d ops, %s -> %s, in %d runs",
		len(plan.Ops), len(shrunk.Ops), plan.Duration, shrunk.Duration, runs)
	if runs == 0 {
		t.Fatal("shrinker spent no runs")
	}
	if len(shrunk.Ops) > len(plan.Ops) || shrunk.Duration > plan.Duration {
		t.Fatal("shrinker grew the plan")
	}
	sres := Run(shrunk, false)
	if !sres.Failed() {
		t.Fatal("shrunk plan no longer fails")
	}
	kept := false
	for _, v := range sres.Violations {
		kept = kept || v.Kind == kind
	}
	if !kept {
		t.Fatalf("shrunk plan lost the %s violation: %v", kind, sres.Violations)
	}

	art := &Artifact{
		Plan: shrunk, PlanHash: shrunk.Hash(), Profile: profile,
		TraceHash: sres.TraceHash, StateHash: sres.StateHash, Violations: sres.Violations,
		OriginalOps: len(plan.Ops), ShrinkRuns: runs,
	}
	path := t.TempDir() + "/planted.json"
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	rres, ok := Replay(loaded, false)
	if !ok {
		t.Fatal("artifact replay did not reproduce the failure")
	}
	if rres.TraceHash != sres.TraceHash {
		t.Fatalf("replay trace hash differs: %s vs %s", rres.TraceHash, sres.TraceHash)
	}
}
