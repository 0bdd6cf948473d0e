package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"groupkey/internal/dst"
)

// Every builtin scenario validates and derives a replayable fault plan.
func TestBuiltinsValidate(t *testing.T) {
	for _, sc := range builtins {
		if err := sc.withDefaults().validate(); err != nil {
			t.Errorf("builtin %s: %v", sc.Name, err)
		}
		plan := sc.FaultPlan()
		if plan.Hash() != sc.FaultPlan().Hash() {
			t.Errorf("builtin %s: fault plan not deterministic", sc.Name)
		}
		if plan.Duration <= 0 || plan.Duration > 30*time.Second {
			t.Errorf("builtin %s: plan duration %v out of range", sc.Name, plan.Duration)
		}
	}
}

// The smoke set resolves to exactly the two per-PR scenarios.
func TestResolveScenarioSets(t *testing.T) {
	smoke, err := resolveScenarios([]string{"smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke) != 2 || smoke[0].Name != "smoke-transcon" || smoke[1].Name != "smoke-mobile-3g" {
		t.Fatalf("smoke set: %+v", smoke)
	}
	nightly, err := resolveScenarios([]string{"nightly"})
	if err != nil {
		t.Fatal(err)
	}
	if len(nightly) != len(builtins) {
		t.Fatalf("nightly resolved %d scenarios, want %d", len(nightly), len(builtins))
	}
	if _, err := resolveScenarios([]string{"no-such-scenario"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// Scenario JSON accepts both duration syntaxes and rejects bad shapes.
func TestScenarioJSON(t *testing.T) {
	raw := `{
		"name": "custom",
		"nodes": 1,
		"duration": "12s",
		"seed": 9,
		"regions": [{"name": "r1", "profile": "transcon", "members": 10}],
		"events": [{"at": 3.5, "kind": "flap", "region": "r1", "for": "1s"}],
		"slo": {"max_spread_p99_seconds": 4, "max_missed_rekeys": 10}
	}`
	var sc Scenario
	if err := json.Unmarshal([]byte(raw), &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Duration.D() != 12*time.Second || sc.Events[0].At.D() != 3500*time.Millisecond {
		t.Fatalf("durations parsed as %v / %v", sc.Duration.D(), sc.Events[0].At.D())
	}
	if err := sc.withDefaults().validate(); err != nil {
		t.Fatal(err)
	}

	bad := []Scenario{
		{Name: "x", Nodes: 3, UDP: true, Duration: Duration(time.Second),
			Regions: []Region{{Name: "r", Profile: "lan", Members: 1}}},
		{Name: "x", Nodes: 1, Duration: Duration(time.Second),
			Regions: []Region{{Name: "r", Profile: "nope", Members: 1}}},
		{Name: "x", Nodes: 1, Duration: Duration(time.Second),
			Regions: []Region{{Name: "r", Profile: "lan", Members: 1}},
			Events:  []Event{{Kind: "flap", Region: "other"}}},
		{Name: "x", Nodes: 1, Duration: Duration(time.Second),
			Regions: []Region{{Name: "r", Profile: "lan", Members: 1}},
			Events:  []Event{{Kind: "squeeze", Region: "r"}}},
	}
	for i := range bad {
		if err := bad[i].withDefaults().validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

// The fault-plan mapping pins event kinds onto dst ops.
func TestFaultPlanMapping(t *testing.T) {
	sc := (&Scenario{
		Name:     "map",
		Nodes:    3,
		Duration: Duration(30 * time.Second),
		Seed:     5,
		Regions:  []Region{{Name: "r", Profile: "lan", Members: 10}},
		Events: []Event{
			{At: Duration(5 * time.Second), Kind: "kill-primary", RestartAfter: Duration(2 * time.Second)},
			{At: Duration(10 * time.Second), Kind: "flap", Region: "r", For: Duration(time.Second)},
			{At: Duration(15 * time.Second), Kind: "squeeze", Region: "r", Rate: 1024, For: Duration(time.Second)},
			{At: Duration(20 * time.Second), Kind: "flashcrowd", Region: "r", For: Duration(time.Second)},
		},
	}).withDefaults()
	if err := sc.validate(); err != nil {
		t.Fatal(err)
	}
	plan := sc.FaultPlan()
	kinds := make([]dst.OpKind, len(plan.Ops))
	for i, op := range plan.Ops {
		kinds[i] = op.Kind
	}
	want := []dst.OpKind{dst.OpCrash, dst.OpRestart, dst.OpLossBurst, dst.OpLossBurst}
	if len(kinds) != len(want) {
		t.Fatalf("ops %v, want kinds %v", plan.Ops, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op %d kind %s, want %s", i, kinds[i], want[i])
		}
	}
	if sc.faultProfile() != dst.ProfileMixed {
		t.Fatalf("profile %s, want mixed", sc.faultProfile())
	}
}

// A scenario directory an earlier run left behind is refused before any
// process starts: the servers would recover its state.
func TestRunRefusesUsedDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fault_plan.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &orchestrator{sc: builtins[0], dir: dir, logf: t.Logf}
	if _, err := o.run(); err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Fatalf("run in a used directory: %v, want a refusal", err)
	}
}
