package dst

import (
	"testing"
	"time"
)

// The determinism contract: the same plan, run twice, produces
// byte-identical traces and final states.
func TestRunDeterministic(t *testing.T) {
	for _, profile := range []Profile{ProfileClean, ProfileMixed} {
		plan := GenPlan(42, profile)
		plan.Duration = 10 * time.Second
		a := Run(plan, false)
		b := Run(plan, false)
		if a.TraceHash != b.TraceHash {
			t.Fatalf("%s: trace hashes differ across identical runs:\n  %s\n  %s",
				profile, a.TraceHash, b.TraceHash)
		}
		if a.StateHash != b.StateHash {
			t.Fatalf("%s: state hashes differ across identical runs", profile)
		}
		if a.TraceLines != b.TraceLines {
			t.Fatalf("%s: trace lengths differ: %d vs %d", profile, a.TraceLines, b.TraceLines)
		}
	}
}

// Shrinking a failing plan must keep it failing and never grow it.
func TestShrinkPreservesFailure(t *testing.T) {
	// Build a plan that fails by construction: an impossible SLO makes
	// every broadcast a violation, so the shrinker has signal to work
	// with regardless of build flavor.
	plan := GenPlan(3, ProfilePartition)
	plan.Duration = 8 * time.Second
	plan.SLO = time.Nanosecond
	res := Run(plan, false)
	if !res.Failed() {
		t.Fatal("constructed plan did not fail")
	}
	shrunk, runs := Shrink(plan, res)
	if runs == 0 {
		t.Fatal("shrinker spent no runs")
	}
	if len(shrunk.Ops) > len(plan.Ops) || shrunk.Duration > plan.Duration {
		t.Fatal("shrinker grew the plan")
	}
	if !Run(shrunk, false).Failed() {
		t.Fatal("shrunk plan no longer fails")
	}
}

// Artifacts round-trip through disk and replay to the same failure.
func TestArtifactReplay(t *testing.T) {
	plan := GenPlan(5, ProfileClean)
	plan.Duration = 6 * time.Second
	plan.SLO = time.Nanosecond // force failure
	res := Run(plan, false)
	if !res.Failed() {
		t.Fatal("plan did not fail")
	}
	art := &Artifact{
		Plan: plan, PlanHash: plan.Hash(), Profile: ProfileClean,
		TraceHash: res.TraceHash, StateHash: res.StateHash, Violations: res.Violations,
	}
	path := t.TempDir() + "/artifact.json"
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Plan.Hash() != plan.Hash() {
		t.Fatal("plan hash changed across the JSON round-trip")
	}
	rres, ok := Replay(loaded, false)
	if !ok {
		t.Fatal("replay did not reproduce the failure")
	}
	if rres.TraceHash != res.TraceHash {
		t.Fatal("replay trace hash differs from the original run")
	}
}

// GenPlan is a pure function of (seed, profile).
func TestGenPlanDeterministic(t *testing.T) {
	for _, profile := range Profiles {
		a, b := GenPlan(99, profile), GenPlan(99, profile)
		if a.Hash() != b.Hash() {
			t.Fatalf("%s: GenPlan not deterministic", profile)
		}
	}
	if GenPlan(1, ProfileMixed).Hash() == GenPlan(2, ProfileMixed).Hash() {
		t.Fatal("different seeds produced identical plans")
	}
}
