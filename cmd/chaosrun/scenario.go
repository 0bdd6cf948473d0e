package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"groupkey/internal/dst"
	"groupkey/internal/wanproxy"
)

// Duration is a time.Duration that unmarshals from either a Go duration
// string ("1.5s") or a float number of seconds, so scenario JSON stays
// hand-editable.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("duration must be a string like \"1.5s\" or seconds: %w", err)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Region is one member population behind one WAN link profile.
type Region struct {
	// Name labels the region in reports and artifacts.
	Name string `json:"name"`
	// Profile is a wanproxy named profile (lan, transcon, intercon,
	// mobile-3g, satellite).
	Profile string `json:"profile"`
	// Members is this region's fleet size.
	Members int `json:"members"`
}

// Event is one mid-run fault injection.
type Event struct {
	// At schedules the event relative to fleet start.
	At Duration `json:"at"`
	// Kind is kill-primary, flap, squeeze, or flashcrowd.
	Kind string `json:"kind"`
	// Region targets flap/squeeze/flashcrowd at one region.
	Region string `json:"region,omitempty"`
	// For bounds flap/squeeze/flashcrowd duration.
	For Duration `json:"for,omitempty"`
	// Rate is the squeezed bandwidth in bytes/second.
	Rate int64 `json:"rate,omitempty"`
	// RestartAfter delays the killed primary's restart (default 2s).
	RestartAfter Duration `json:"restart_after,omitempty"`
	// Members sizes a flashcrowd burst fleet (default 100).
	Members int `json:"members,omitempty"`
}

// SLOSpec is the per-scenario gate. Protocol errors are always gated at
// zero — a chaos run may be slow, never wrong.
type SLOSpec struct {
	// MaxSpreadP99 caps the rekey delivery-spread p99 in seconds.
	MaxSpreadP99 float64 `json:"max_spread_p99_seconds"`
	// MaxMissed caps missed rekey epochs summed over a region's fleet.
	MaxMissed int64 `json:"max_missed_rekeys"`
}

// Scenario is one complete chaos run: topology, regions, workload shape,
// fault timeline, and the SLO gate.
type Scenario struct {
	Name string `json:"name"`
	// Nodes is the keyserverd cluster size (1 = standalone).
	Nodes int `json:"nodes"`
	// Groups hosted by the server/cluster.
	Groups int `json:"groups"`
	// Scheme is the key-management scheme (default tt).
	Scheme string `json:"scheme,omitempty"`
	// Period is the rekey period (default 300ms — compressed time).
	Period Duration `json:"period,omitempty"`
	// UDP enables the datagram rekey plane (standalone only).
	UDP bool `json:"udp,omitempty"`
	// Duration bounds the member fleets' run.
	Duration Duration `json:"duration"`
	// Seed makes churn, shaping, and the fault plan reproducible.
	Seed uint64 `json:"seed"`
	// Compress is the churn time-compression factor (default 200).
	Compress float64 `json:"compress,omitempty"`

	Regions []Region `json:"regions"`
	Events  []Event  `json:"events,omitempty"`
	SLO     SLOSpec  `json:"slo"`
}

// validate rejects scenarios the orchestrator cannot run.
func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if sc.Nodes < 1 {
		return fmt.Errorf("%s: nodes must be >= 1", sc.Name)
	}
	if sc.UDP && (sc.Nodes > 1 || sc.Groups > 1) {
		return fmt.Errorf("%s: the UDP rekey plane is standalone single-group only", sc.Name)
	}
	if sc.Duration.D() <= 0 {
		return fmt.Errorf("%s: duration must be positive", sc.Name)
	}
	if len(sc.Regions) == 0 {
		return fmt.Errorf("%s: no regions", sc.Name)
	}
	seen := map[string]bool{}
	for _, r := range sc.Regions {
		if r.Name == "" || r.Members <= 0 {
			return fmt.Errorf("%s: region %+v needs a name and members", sc.Name, r)
		}
		if seen[r.Name] {
			return fmt.Errorf("%s: duplicate region %q", sc.Name, r.Name)
		}
		seen[r.Name] = true
		if _, ok := wanproxy.Named(r.Profile); !ok {
			return fmt.Errorf("%s: region %q: unknown profile %q (want one of %v)",
				sc.Name, r.Name, r.Profile, wanproxy.ProfileNames())
		}
	}
	for _, ev := range sc.Events {
		switch ev.Kind {
		case "kill-primary":
			// Region-independent.
		case "flap", "squeeze", "flashcrowd":
			if !seen[ev.Region] {
				return fmt.Errorf("%s: event %s targets unknown region %q", sc.Name, ev.Kind, ev.Region)
			}
			if ev.Kind == "squeeze" && ev.Rate <= 0 {
				return fmt.Errorf("%s: squeeze needs a positive rate", sc.Name)
			}
		default:
			return fmt.Errorf("%s: unknown event kind %q", sc.Name, ev.Kind)
		}
		if ev.At.D() < 0 || ev.At.D() >= sc.Duration.D() {
			return fmt.Errorf("%s: event %s at %v falls outside the run", sc.Name, ev.Kind, ev.At.D())
		}
	}
	return nil
}

func (sc *Scenario) withDefaults() *Scenario {
	if sc.Groups <= 0 {
		sc.Groups = 1
	}
	if sc.Scheme == "" {
		sc.Scheme = "tt"
	}
	if sc.Period.D() <= 0 {
		sc.Period = Duration(300 * time.Millisecond)
	}
	if sc.Compress <= 0 {
		sc.Compress = 200
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// totalMembers sums the steady-state fleets (flash crowds excluded).
func (sc *Scenario) totalMembers() int {
	n := 0
	for _, r := range sc.Regions {
		n += r.Members
	}
	return n
}

// FaultPlan derives the scenario's canonical dst fault plan: a
// deterministic mapping of the chaos timeline onto simulation ops, so the
// same faults replay under the deterministic simulator and the plan hash
// recorded in every SOAK report is `dstrun -replay`-able.
func (sc *Scenario) FaultPlan() dst.Plan {
	p := dst.Plan{
		Seed:     sc.Seed,
		Nodes:    sc.Nodes,
		Members:  12,
		Groups:   sc.Groups,
		Scheme:   sc.Scheme,
		K:        4,
		Duration: sc.Duration.D(),
		LeaseTTL: 2 * time.Second,
		Period:   500 * time.Millisecond,
		Loss:     0.05,
		Fsync:    "always",
	}
	if p.Duration > 30*time.Second {
		p.Duration = 30 * time.Second
	}
	for _, ev := range sc.Events {
		at := ev.At.D()
		if at >= p.Duration {
			continue
		}
		switch ev.Kind {
		case "kill-primary":
			restart := ev.RestartAfter.D()
			if restart <= 0 {
				restart = 2 * time.Second
			}
			p.Ops = append(p.Ops,
				dst.Op{At: at, Kind: dst.OpCrash, Node: 0},
				dst.Op{At: at + restart, Kind: dst.OpRestart, Node: 0})
		case "flap":
			d := ev.For.D()
			if d <= 0 {
				d = time.Second
			}
			p.Ops = append(p.Ops, dst.Op{At: at, Kind: dst.OpLossBurst, Grp: 0, Dur: d, Frac: 0.9})
		case "squeeze":
			d := ev.For.D()
			if d <= 0 {
				d = time.Second
			}
			p.Ops = append(p.Ops, dst.Op{At: at, Kind: dst.OpLossBurst, Grp: 0, Dur: d, Frac: 0.3})
		case "flashcrowd":
			// Workload, not a fault: no op.
		}
	}
	sort.SliceStable(p.Ops, func(i, j int) bool { return p.Ops[i].At < p.Ops[j].At })
	return p
}

// faultProfile labels the plan's artifact with the closest dst profile.
func (sc *Scenario) faultProfile() dst.Profile {
	hasCrash, hasLoss := false, false
	for _, ev := range sc.Events {
		switch ev.Kind {
		case "kill-primary":
			hasCrash = true
		case "flap", "squeeze":
			hasLoss = true
		}
	}
	switch {
	case hasCrash && hasLoss:
		return dst.ProfileMixed
	case hasCrash:
		return dst.ProfileCrash
	case hasLoss:
		return dst.ProfileMixed
	default:
		return dst.ProfileClean
	}
}

// builtins is the named scenario matrix. The two smoke-* scenarios are
// the per-PR CI gate; the full set is the nightly matrix.
//
// MaxMissed ceilings are calibrated, not aspirational: at period=300ms
// with compress=200 churn, short sessions on a high-latency UDP path
// legitimately observe epoch gaps (out-of-order shard arrival, NACK
// repairs landing after the next epoch). A fault-free two-region
// transcon run measured ~1200 missed on the WAN side and ~400 on the
// LAN side while every datagram was verified by its own signature;
// ceilings sit at roughly 2x that baseline so they catch delivery
// regressions without flaking on link physics. Most of that baseline was
// the subscribers' verification backlog: with one signature per epoch
// the faulted smoke-transcon run misses 0–7 epochs per region
// (EXPERIMENTS.md E24), and the ceilings await a derivation from the
// loss profile.
// Protocol errors remain hard-gated at zero regardless.
var builtins = []*Scenario{
	{
		Name:     "smoke-transcon",
		Nodes:    1,
		UDP:      true,
		Duration: Duration(25 * time.Second),
		Seed:     101,
		Regions: []Region{
			{Name: "transcon", Profile: "transcon", Members: 120},
			{Name: "lan", Profile: "lan", Members: 80},
		},
		Events: []Event{
			{At: Duration(9 * time.Second), Kind: "flap", Region: "transcon", For: Duration(1500 * time.Millisecond)},
		},
		SLO: SLOSpec{MaxSpreadP99: 5, MaxMissed: 3000},
	},
	{
		Name:     "smoke-mobile-3g",
		Nodes:    3,
		Duration: Duration(30 * time.Second),
		Seed:     102,
		Regions: []Region{
			{Name: "mobile", Profile: "mobile-3g", Members: 120},
			{Name: "lan", Profile: "lan", Members: 80},
		},
		Events: []Event{
			{At: Duration(12 * time.Second), Kind: "kill-primary", RestartAfter: Duration(2500 * time.Millisecond)},
		},
		SLO: SLOSpec{MaxSpreadP99: 8, MaxMissed: 4000},
	},
	{
		Name:     "nightly-satellite-flashcrowd",
		Nodes:    1,
		UDP:      true,
		Duration: Duration(40 * time.Second),
		Seed:     201,
		Regions: []Region{
			{Name: "satellite", Profile: "satellite", Members: 100},
			{Name: "lan", Profile: "lan", Members: 100},
		},
		Events: []Event{
			{At: Duration(12 * time.Second), Kind: "flashcrowd", Region: "satellite", For: Duration(12 * time.Second), Members: 150},
		},
		SLO: SLOSpec{MaxSpreadP99: 8, MaxMissed: 6000},
	},
	{
		Name:     "nightly-intercon-squeeze",
		Nodes:    3,
		Duration: Duration(40 * time.Second),
		Seed:     202,
		Regions: []Region{
			{Name: "intercon", Profile: "intercon", Members: 150},
			{Name: "lan", Profile: "lan", Members: 50},
		},
		Events: []Event{
			{At: Duration(10 * time.Second), Kind: "squeeze", Region: "intercon", Rate: 256 << 10, For: Duration(8 * time.Second)},
			{At: Duration(24 * time.Second), Kind: "flap", Region: "intercon", For: Duration(2 * time.Second)},
		},
		SLO: SLOSpec{MaxSpreadP99: 10, MaxMissed: 6000},
	},
	{
		Name:     "nightly-multiregion-failover",
		Nodes:    3,
		Duration: Duration(45 * time.Second),
		Seed:     203,
		Regions: []Region{
			{Name: "transcon", Profile: "transcon", Members: 80},
			{Name: "intercon", Profile: "intercon", Members: 80},
			{Name: "mobile", Profile: "mobile-3g", Members: 60},
			{Name: "lan", Profile: "lan", Members: 40},
		},
		Events: []Event{
			{At: Duration(10 * time.Second), Kind: "flap", Region: "mobile", For: Duration(2 * time.Second)},
			{At: Duration(18 * time.Second), Kind: "kill-primary", RestartAfter: Duration(3 * time.Second)},
			{At: Duration(30 * time.Second), Kind: "squeeze", Region: "transcon", Rate: 512 << 10, For: Duration(6 * time.Second)},
		},
		SLO: SLOSpec{MaxSpreadP99: 10, MaxMissed: 8000},
	},
}

// resolveScenarios maps -scenario values onto concrete scenarios:
// builtin names, the sets "smoke" and "nightly" (every builtin), or a
// path to a scenario JSON file.
func resolveScenarios(names []string) ([]*Scenario, error) {
	byName := map[string]*Scenario{}
	for _, sc := range builtins {
		byName[sc.Name] = sc
	}
	var out []*Scenario
	for _, name := range names {
		switch {
		case name == "smoke":
			out = append(out, byName["smoke-transcon"], byName["smoke-mobile-3g"])
		case name == "nightly":
			out = append(out, builtins...)
		case byName[name] != nil:
			out = append(out, byName[name])
		default:
			b, err := os.ReadFile(name)
			if err != nil {
				return nil, fmt.Errorf("scenario %q is neither builtin (%v, smoke, nightly) nor a readable file: %w",
					name, builtinNames(), err)
			}
			var sc Scenario
			if err := json.Unmarshal(b, &sc); err != nil {
				return nil, fmt.Errorf("parsing scenario file %s: %w", name, err)
			}
			out = append(out, &sc)
		}
	}
	for _, sc := range out {
		if err := sc.withDefaults().validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func builtinNames() []string {
	names := make([]string, len(builtins))
	for i, sc := range builtins {
		names[i] = sc.Name
	}
	return names
}
