//go:build !dst_plantedbug

package dst

import (
	"testing"
	"time"
)

// The oracles below must hold on a correct build; the planted-bug build
// (-tags dst_plantedbug) is meant to break them, so this file is left
// out of it.

// Every profile must pass all oracles on a correct build: the fault model
// may degrade delivery mid-run, but after heal and settle the cluster
// converges and no safety property ever breaks.
func TestSmokeSeedsPassOracles(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	for _, profile := range Profiles {
		for s := 0; s < seeds; s++ {
			seed := uint64(1000 + s)
			plan := GenPlan(seed, profile)
			plan.Duration = 12 * time.Second
			res := Run(plan, false)
			if res.Failed() {
				t.Errorf("profile %s seed %d: %d violation(s); first: %s",
					profile, seed, len(res.Violations), res.Violations[0])
			}
			if res.Stats.Rekeys == 0 {
				t.Errorf("profile %s seed %d: no rekeys processed — sim not exercising the system", profile, seed)
			}
		}
	}
}

// Crash-heavy runs must actually exercise recovery, and the fault-free
// profile must meet the delivery-spread SLO.
func TestFaultCoverage(t *testing.T) {
	plan := GenPlan(7, ProfileCrash)
	plan.Duration = 15 * time.Second
	res := Run(plan, false)
	if res.Failed() {
		t.Fatalf("crash profile seed 7: %v", res.Violations[0])
	}
	if res.Stats.Crashes == 0 {
		t.Fatal("crash profile injected no crashes")
	}
	if res.Stats.Recoveries <= plan.Nodes*plan.Groups {
		t.Fatalf("no post-crash recoveries happened (recoveries=%d)", res.Stats.Recoveries)
	}

	clean := GenPlan(8, ProfileClean)
	clean.Duration = 10 * time.Second
	cres := Run(clean, false)
	if cres.Failed() {
		t.Fatalf("clean profile violated an oracle: %v", cres.Violations[0])
	}
	if cres.Stats.MaxSpread == 0 {
		t.Fatal("no delivery spread measured")
	}
}

// A clean artifact (no recorded violations — a chaos scenario's archived
// fault plan) replays successfully iff the oracles stay green.
func TestCleanArtifactReplay(t *testing.T) {
	plan := GenPlan(11, ProfileCrash)
	plan.Duration = 10 * time.Second
	art := &Artifact{Plan: plan, PlanHash: plan.Hash(), Profile: ProfileCrash}
	res, ok := Replay(art, false)
	if !ok {
		t.Fatalf("clean artifact replay rejected: %d violations", len(res.Violations))
	}

	// A clean artifact whose plan does violate an oracle must NOT replay.
	bad := GenPlan(5, ProfileClean)
	bad.Duration = 6 * time.Second
	bad.SLO = time.Nanosecond
	badArt := &Artifact{Plan: bad, PlanHash: bad.Hash(), Profile: ProfileClean}
	if _, ok := Replay(badArt, false); ok {
		t.Fatal("violating plan accepted as a clean replay")
	}
}
