package keytree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"groupkey/internal/keycrypt"
)

// biasedBatches generates churn like fuzzBatches but with independently
// bounded join/leave sizes, so regimes can be skewed toward surplus joins
// (maxJoin > maxLeave) or surplus departures (maxLeave > maxJoin).
func biasedBatches(seed int64, initial, rounds, maxJoin, maxLeave int) []Batch {
	rnd := rand.New(rand.NewSource(seed))
	next := MemberID(1)
	var present []MemberID
	var batches []Batch

	prime := Batch{}
	for i := 0; i < initial; i++ {
		prime.Joins = append(prime.Joins, next)
		present = append(present, next)
		next++
	}
	batches = append(batches, prime)

	for r := 0; r < rounds; r++ {
		b := Batch{}
		nJoin := rnd.Intn(maxJoin + 1)
		nLeave := rnd.Intn(maxLeave + 1)
		// Never drain the group below a handful of members.
		if rest := len(present) - nLeave; rest < 4 {
			nLeave = max(0, len(present)-4)
		}
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:nLeave]...)
		present = present[nLeave:]
		for i := 0; i < nJoin; i++ {
			b.Joins = append(b.Joins, next)
			present = append(present, next)
			next++
		}
		batches = append(batches, b)
	}
	return batches
}

// twoClassBatches generates churn shaped like the benchmark's durable_tt
// workload: arrivals alternate between a high and a low count each round,
// a quarter of them long-lived (60 rounds) and the rest short-lived (3
// rounds), over an initial population whose departures are staggered across
// one long lifetime — so nearly every batch has both joins and leaves, in
// unequal numbers.
func twoClassBatches(seed int64, initial, rounds int) []Batch {
	const shortLife, longLife, longShare = 3, 60, 0.25
	rnd := rand.New(rand.NewSource(seed))
	arrivals := [2]int{max(2, initial/150), max(1, initial/300)}
	leaveAt := make(map[MemberID]int)
	next := MemberID(1)
	prime := Batch{}
	for i := 0; i < initial; i++ {
		prime.Joins = append(prime.Joins, next)
		leaveAt[next] = 1 + i*longLife/initial
		next++
	}
	batches := []Batch{prime}
	for r := 1; r <= rounds; r++ {
		b := Batch{}
		for m := MemberID(1); m < next; m++ {
			if at, ok := leaveAt[m]; ok && at <= r {
				b.Leaves = append(b.Leaves, m)
				delete(leaveAt, m)
			}
		}
		for i := 0; i < arrivals[r%2]; i++ {
			life := shortLife
			if rnd.Float64() < longShare {
				life = longLife
			}
			b.Joins = append(b.Joins, next)
			leaveAt[next] = r + life
			next++
		}
		batches = append(batches, b)
	}
	return batches
}

// checkPlacement asserts the payload's realized placement is a well-formed
// cover of the batch and, when the batch was simulated, that the realized
// multicast wrap count equals the prediction.
func checkPlacement(tb testing.TB, tr *Tree, b Batch, p *Payload) {
	tb.Helper()
	pl := p.Placement
	holes := make(map[MemberID]bool, len(b.Leaves))
	for _, m := range b.Leaves {
		holes[m] = false
	}
	joiners := make(map[MemberID]bool, len(b.Joins))
	for _, m := range b.Joins {
		joiners[m] = false
	}
	takeHole := func(m MemberID) {
		used, ok := holes[m]
		if !ok || used {
			tb.Fatalf("placement consumes hole %d badly (known=%v used=%v)", m, ok, used)
		}
		holes[m] = true
	}
	takeJoiner := func(m MemberID) {
		used, ok := joiners[m]
		if !ok || used {
			tb.Fatalf("placement places joiner %d badly (known=%v used=%v)", m, ok, used)
		}
		joiners[m] = true
	}
	for _, f := range pl.Fills {
		takeHole(f.Hole)
		takeJoiner(f.Joiner)
	}
	for _, m := range pl.Removed {
		takeHole(m)
	}
	for _, g := range pl.Grown {
		takeJoiner(g.Joiner)
	}
	for m, used := range holes {
		if !used {
			tb.Fatalf("hole %d never consumed by placement", m)
		}
	}
	for m, used := range joiners {
		if !used {
			tb.Fatalf("joiner %d never placed by placement", m)
		}
	}
	if pl.PredictedWraps >= 0 && pl.PredictedWraps != p.MulticastKeyCount() {
		tb.Fatalf("planner predicted %d multicast wraps, realized %d (J=%d L=%d planned=%v)",
			pl.PredictedWraps, p.MulticastKeyCount(), len(b.Joins), len(b.Leaves), pl.Planned)
	}
}

// greedyOracle applies the batch with the greedy pairing to a snapshot
// clone of tr — the differential baseline: "what would this exact tree
// state have paid without the planner?"
func greedyOracle(tb testing.TB, tr *Tree, b Batch) (*Payload, *Tree) {
	tb.Helper()
	blob, err := tr.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	clone, err := Restore(blob, WithRand(keycrypt.NewDeterministicReader(0xfeed)))
	if err != nil {
		tb.Fatal(err)
	}
	p, err := clone.Rekey(b)
	if err != nil {
		tb.Fatalf("greedy oracle rekey: %v", err)
	}
	return p, clone
}

// TestPlannerNeverWorseThanGreedy is the planner's core property: for
// every batch of seeded random churn, in every J≠L regime and at every
// tested group size, the planner's realized multicast wraps and post-batch
// ExpectedRekeyCost never exceed what the greedy pairing would have
// realized on the same tree state. This is exactly the dominance guard's
// contract, so it must hold for any seed.
func TestPlannerNeverWorseThanGreedy(t *testing.T) {
	const rounds = 30
	regimes := []struct {
		name    string
		batches func(seed int64, n int) []Batch
	}{
		{"balanced", func(seed int64, n int) []Batch { return fuzzBatches(seed, n, rounds) }},
		{"join-heavy", func(seed int64, n int) []Batch { return biasedBatches(seed, n, rounds, 9, 3) }},
		{"leave-heavy", func(seed int64, n int) []Batch { return biasedBatches(seed, n, rounds, 3, 9) }},
		{"two-class", func(seed int64, n int) []Batch { return twoClassBatches(seed, n, rounds) }},
	}
	sizes := []int{16, 1000}
	if !testing.Short() {
		sizes = append(sizes, 10000)
	}
	for _, n := range sizes {
		for _, rg := range regimes {
			for _, seed := range []int64{5, 23} {
				t.Run(fmt.Sprintf("n=%d/%s/seed=%d", n, rg.name, seed), func(t *testing.T) {
					batches := rg.batches(seed, n)
					pt, err := New(4, WithRand(keycrypt.NewDeterministicReader(1)), WithPlanner(PlannerConfig{}))
					if err != nil {
						t.Fatal(err)
					}
					planned := 0
					for i, b := range batches {
						gp, clone := greedyOracle(t, pt, b)
						pp, err := pt.Rekey(b)
						if err != nil {
							t.Fatalf("batch %d: planner: %v", i, err)
						}
						checkPlacement(t, pt, b, pp)
						if pw, gw := pp.MulticastKeyCount(), gp.MulticastKeyCount(); pw > gw {
							t.Fatalf("batch %d (J=%d L=%d): planner wraps %d > greedy %d",
								i, len(b.Joins), len(b.Leaves), pw, gw)
						}
						l := max(1, len(b.Leaves))
						if pc, gc := pt.ExpectedRekeyCost(l), clone.ExpectedRekeyCost(l); pc > gc+costEps(gc) {
							t.Fatalf("batch %d (J=%d L=%d): planner cost %.6f > greedy %.6f",
								i, len(b.Joins), len(b.Leaves), pc, gc)
						}
						if pt.Size() != clone.Size() {
							t.Fatalf("batch %d: membership diverged: planner %d, greedy %d", i, pt.Size(), clone.Size())
						}
						if pp.Placement.Planned {
							planned++
						}
					}
					if st := pt.PlannerStats(); st.PlannedBatches != planned {
						t.Fatalf("PlannedBatches counter %d, observed %d planned payloads", st.PlannedBatches, planned)
					}
				})
			}
		}
	}
}

// TestPlannerDeterministicAcrossEmitters runs the planner-enabled tree
// through the legacy serial emitter and the planned engine over identical
// churn, asserting byte-identical payloads — the contract WAL replay and
// cluster replication depend on.
func TestPlannerDeterministicAcrossEmitters(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				serial, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithLegacyRekey(), WithPlanner(PlannerConfig{}))
				if err != nil {
					t.Fatal(err)
				}
				engine, err := New(3, WithRand(keycrypt.NewDeterministicReader(uint64(seed))), WithWrapWorkers(workers), WithPlanner(PlannerConfig{}))
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range biasedBatches(seed, 40, 30, 3, 9) {
					ps, err := serial.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: serial: %v", i, err)
					}
					pe, err := engine.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: engine: %v", i, err)
					}
					if !bytes.Equal(marshalPayload(t, ps), marshalPayload(t, pe)) {
						t.Fatalf("batch %d: planner payload bytes diverge", i)
					}
				}
				ss, es := serial.PlannerStats(), engine.PlannerStats()
				if ss != es {
					t.Fatalf("planner counters diverge: serial %+v, engine %+v", ss, es)
				}
				if es.PlannedBatches == 0 {
					t.Fatal("no batch was planned; the comparison only covered greedy placements")
				}
			})
		}
	}
}

// TestPlanBatchLeavesStatsUntouched previews batches the planner both
// plans and declines, and checks that only the Rekey that applies a batch
// moves the planner counters — a previewed batch must not be counted twice.
func TestPlanBatchLeavesStatsUntouched(t *testing.T) {
	tr, err := New(4, WithRand(keycrypt.NewDeterministicReader(1)), WithPlanner(PlannerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	var want PlannerStats
	for i, b := range twoClassBatches(5, 1000, 20) {
		before := tr.PlannerStats()
		plan, err := tr.PlanBatch(b)
		if err != nil {
			t.Fatalf("batch %d: PlanBatch: %v", i, err)
		}
		if got := tr.PlannerStats(); got != before {
			t.Fatalf("batch %d: PlanBatch moved the counters: %+v -> %+v", i, before, got)
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if p.Placement.Planned != plan.Planned || p.Placement.PredictedWraps != plan.PredictedWraps {
			t.Fatalf("batch %d: Rekey realized planned=%v wraps=%d, preview said planned=%v wraps=%d",
				i, p.Placement.Planned, p.Placement.PredictedWraps, plan.Planned, plan.PredictedWraps)
		}
		switch {
		case plan.Planned:
			want.PlannedBatches++
		case plan.PredictedWraps >= 0:
			want.GreedyFallbacks++
		}
	}
	got := tr.PlannerStats()
	if got.PlannedBatches != want.PlannedBatches || got.GreedyFallbacks != want.GreedyFallbacks {
		t.Fatalf("counters %+v, want %d planned and %d fallbacks", got, want.PlannedBatches, want.GreedyFallbacks)
	}
	if want.PlannedBatches == 0 || want.GreedyFallbacks == 0 {
		t.Fatalf("trace covered %d planned and %d declined batches; need both", want.PlannedBatches, want.GreedyFallbacks)
	}
}

// FuzzPlanBatch fuzzes the planner end to end: a seeded tree receives an
// arbitrary batch; the plan must validate, apply cleanly, realize exactly
// its predicted wrap count, and leave the tree structurally sound.
func FuzzPlanBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(9), uint8(1))
	f.Add(int64(7), uint8(50), uint8(9), uint8(2), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0), uint8(5), uint8(2))
	f.Add(int64(99), uint8(33), uint8(8), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, initial, nJoin, nLeave, degSel uint8) {
		degree := 2 + int(degSel%4)
		tr, err := New(degree,
			WithRand(keycrypt.NewDeterministicReader(uint64(seed))),
			WithPlanner(PlannerConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		next := MemberID(1)
		var present []MemberID
		prime := Batch{}
		for i := 0; i < int(initial); i++ {
			prime.Joins = append(prime.Joins, next)
			present = append(present, next)
			next++
		}
		if len(prime.Joins) > 0 {
			if _, err := tr.Rekey(prime); err != nil {
				t.Fatal(err)
			}
		}
		// A couple of warm-up churn rounds so the tree shape is nontrivial.
		rnd := rand.New(rand.NewSource(seed))
		for r := 0; r < 2 && len(present) > 2; r++ {
			rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
			k := rnd.Intn(len(present) / 2)
			b := Batch{Leaves: append([]MemberID(nil), present[:k]...)}
			present = present[k:]
			if _, err := tr.Rekey(b); err != nil {
				t.Fatal(err)
			}
		}

		b := Batch{}
		nl := int(nLeave)
		if nl > len(present) {
			nl = len(present)
		}
		rnd.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
		b.Leaves = append(b.Leaves, present[:nl]...)
		for i := 0; i < int(nJoin); i++ {
			b.Joins = append(b.Joins, next)
			next++
		}
		if b.IsEmpty() && tr.Size() == 0 {
			return
		}

		plan, err := tr.PlanBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.validatePlan(b, plan); err != nil {
			t.Fatalf("planner emitted invalid plan: %v", err)
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatalf("planned batch failed to apply: %v", err)
		}
		checkPlacement(t, tr, b, p)

		// Structural soundness: member count, leaf bookkeeping, reachability.
		wantSize := len(present) - nl + int(nJoin)
		if tr.Size() != wantSize {
			t.Fatalf("tree size %d, want %d", tr.Size(), wantSize)
		}
		if tr.Root() != nil {
			if got := tr.Root().Leaves(); got != wantSize {
				t.Fatalf("root leaf count %d, want %d", got, wantSize)
			}
			count := 0
			walk(tr.Root(), func(n *Node) {
				if n.IsLeaf() {
					count++
					if n.Member() == 0 {
						t.Fatal("interior-free leaf without member")
					}
				} else if len(n.Children()) < 2 {
					t.Fatalf("interior node with %d children survived", len(n.Children()))
				}
			})
			if count != wantSize {
				t.Fatalf("walk found %d leaves, want %d", count, wantSize)
			}
		}
	})
}
