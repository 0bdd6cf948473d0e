package dst

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// OpKind names one fault the plan injects.
type OpKind string

const (
	// OpCrash kills a node: unsynced filesystem state is lost (with a
	// random torn tail on the last dirty file) and all its timers die.
	OpCrash OpKind = "crash"
	// OpRestart boots a crashed node: stores reopen and recover from
	// whatever the crash left durable.
	OpRestart OpKind = "restart"
	// OpPartition cuts a node off from its peers AND the lease authority
	// for Dur — the deposed-primary scenario.
	OpPartition OpKind = "partition"
	// OpHeal removes a node's partition early.
	OpHeal OpKind = "heal"
	// OpStall freezes a node for Dur (GC pause, VM migration): its clock
	// falls behind by Dur and its pending timers fire late.
	OpStall OpKind = "stall"
	// OpSlowDisk multiplies the node's disk write latency for Dur.
	OpSlowDisk OpKind = "slowdisk"
	// OpTorn makes the node's next WAL append fail mid-write, then
	// crashes and restarts it — the torn-tail recovery path.
	OpTorn OpKind = "torn"
	// OpLossBurst switches every member of one group to a bursty
	// Gilbert-Elliott loss process for Dur.
	OpLossBurst OpKind = "lossburst"
)

// Op is one scheduled fault.
type Op struct {
	At   time.Duration `json:"at"`
	Kind OpKind        `json:"kind"`
	Node int           `json:"node,omitempty"`
	Grp  int           `json:"group,omitempty"`
	Dur  time.Duration `json:"dur,omitempty"`
	Frac float64       `json:"frac,omitempty"`
}

func (o Op) String() string {
	return fmt.Sprintf("%s@%s n%d g%d dur=%s frac=%.2f", o.Kind, o.At, o.Node, o.Grp, o.Dur, o.Frac)
}

// Plan is one complete simulation input: topology, workload shape, and
// the fault schedule. Identical plans produce identical runs.
type Plan struct {
	Seed     uint64        `json:"seed"`
	Nodes    int           `json:"nodes"`
	Members  int           `json:"members"`
	Groups   int           `json:"groups"`
	Scheme   string        `json:"scheme"`
	K        int           `json:"k"`
	Duration time.Duration `json:"duration"`
	LeaseTTL time.Duration `json:"lease_ttl"`
	Period   time.Duration `json:"period"`
	// Loss is the baseline per-member multicast loss probability.
	Loss float64 `json:"loss"`
	// Fsync is the WAL policy for every node: "always" or "never"
	// ("never" exercises post-crash log regression and catch-up).
	Fsync string `json:"fsync"`
	// SLO, when positive, bounds the worst emission-to-applied delivery
	// spread; zero disables the check (fault profiles, where unbounded
	// repair lag is expected until the final convergence check).
	SLO time.Duration `json:"slo,omitempty"`
	// Planner runs the batch placement planner on every key tree.
	Planner bool `json:"planner,omitempty"`
	Ops     []Op `json:"ops"`
}

// Hash returns the canonical-JSON digest of the plan, recorded in
// artifacts and soak reports so a failure names its exact input.
func (p Plan) Hash() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plan is plain data; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Profile names a fault mix for plan generation.
type Profile string

const (
	// ProfileClean injects no faults and arms the delivery-spread SLO.
	ProfileClean Profile = "clean"
	// ProfileCrash exercises crash/restart and torn writes.
	ProfileCrash Profile = "crash"
	// ProfilePartition exercises partitions and heals.
	ProfilePartition Profile = "partition"
	// ProfileSkew exercises node stalls (clock skew + late timers).
	ProfileSkew Profile = "skew"
	// ProfileSlowDisk exercises slow and torn disk writes.
	ProfileSlowDisk Profile = "slowdisk"
	// ProfileMixed draws from every fault class.
	ProfileMixed Profile = "mixed"
)

// Profiles lists every generation profile, in sweep order.
var Profiles = []Profile{ProfileClean, ProfileCrash, ProfilePartition, ProfileSkew, ProfileSlowDisk, ProfileMixed}

var planSchemes = []string{"onetree", "naive", "qt", "tt"}

// GenPlan derives a complete plan from a seed and a profile. The same
// (seed, profile) always yields the same plan.
func GenPlan(seed uint64, profile Profile) Plan {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5f3759df))
	p := Plan{
		Seed:     seed,
		Nodes:    3,
		Members:  12 + rng.Intn(12),
		Groups:   1 + rng.Intn(2),
		Scheme:   planSchemes[rng.Intn(len(planSchemes))],
		K:        4,
		Duration: 30 * time.Second,
		LeaseTTL: 2 * time.Second,
		Period:   500 * time.Millisecond,
		Loss:     0.05,
		Fsync:    "always",
		Planner:  seed%2 == 1, // not drawn: a seed keeps its faults and members
	}
	if profile == ProfileClean {
		p.Loss = 0.02
		p.SLO = 900 * time.Millisecond
		return p
	}
	kinds := profileKinds(profile)
	if profile == ProfileCrash && rng.Intn(3) == 0 {
		p.Fsync = "never"
	}
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		at := time.Duration(2+rng.Intn(22)) * time.Second
		node := rng.Intn(p.Nodes)
		switch kinds[rng.Intn(len(kinds))] {
		case OpCrash:
			down := time.Duration(500+rng.Intn(4000)) * time.Millisecond
			p.Ops = append(p.Ops,
				Op{At: at, Kind: OpCrash, Node: node},
				Op{At: at + down, Kind: OpRestart, Node: node})
		case OpPartition:
			p.Ops = append(p.Ops, Op{At: at, Kind: OpPartition, Node: node,
				Dur: time.Duration(1+rng.Intn(5)) * time.Second})
		case OpStall:
			p.Ops = append(p.Ops, Op{At: at, Kind: OpStall, Node: node,
				Dur: time.Duration(500+rng.Intn(3500)) * time.Millisecond})
		case OpSlowDisk:
			p.Ops = append(p.Ops, Op{At: at, Kind: OpSlowDisk, Node: node,
				Dur: time.Duration(1+rng.Intn(4)) * time.Second, Frac: 10 + 40*rng.Float64()})
		case OpTorn:
			p.Ops = append(p.Ops, Op{At: at, Kind: OpTorn, Node: node, Frac: rng.Float64()})
		case OpLossBurst:
			p.Ops = append(p.Ops, Op{At: at, Kind: OpLossBurst, Grp: rng.Intn(p.Groups),
				Dur: time.Duration(1+rng.Intn(3)) * time.Second, Frac: 0.4 + 0.4*rng.Float64()})
		}
	}
	sortOps(p.Ops)
	return p
}

func profileKinds(profile Profile) []OpKind {
	switch profile {
	case ProfileCrash:
		return []OpKind{OpCrash, OpCrash, OpTorn}
	case ProfilePartition:
		return []OpKind{OpPartition}
	case ProfileSkew:
		return []OpKind{OpStall}
	case ProfileSlowDisk:
		return []OpKind{OpSlowDisk, OpTorn}
	default:
		return []OpKind{OpCrash, OpPartition, OpStall, OpSlowDisk, OpTorn, OpLossBurst}
	}
}

func sortOps(ops []Op) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}
