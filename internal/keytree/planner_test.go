package keytree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// cover of the batch that realizes plan — what PlanBatch previewed just
// before the Rekey — and, when the batch was simulated, that the realized
// multicast wrap count and the tree's expected cost equal the prediction.
// The cost is compared with ==: the dry run evaluated the same function on
// the same shape in the same order.
func checkPlacement(tb testing.TB, tr *Tree, b Batch, plan Plan, p *Payload) {
	tb.Helper()
	pl := p.Placement
	if pl.Planned != plan.Planned || pl.PredictedWraps != plan.PredictedWraps {
		tb.Fatalf("Rekey realized planned=%v wraps=%d, preview said planned=%v wraps=%d",
			pl.Planned, pl.PredictedWraps, plan.Planned, plan.PredictedWraps)
	}
	if plan.PredictedWraps >= 0 {
		if got := tr.ExpectedRekeyCost(len(b.Leaves)); got != plan.PredictedCost {
			tb.Fatalf("planner predicted cost %v, realized %v (J=%d L=%d planned=%v)",
				plan.PredictedCost, got, len(b.Joins), len(b.Leaves), plan.Planned)
		}
	}
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
						plan, err := pt.PlanBatch(b)
						if err != nil {
							t.Fatalf("batch %d: PlanBatch: %v", i, err)
						}
						pp, err := pt.Rekey(b)
						if err != nil {
							t.Fatalf("batch %d: planner: %v", i, err)
						}
						checkPlacement(t, pt, b, plan, pp)
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
					plan, err := engine.PlanBatch(b)
					if err != nil {
						t.Fatalf("batch %d: PlanBatch: %v", i, err)
					}
					pe, err := engine.Rekey(b)
					if err != nil {
						t.Fatalf("batch %d: engine: %v", i, err)
					}
					checkPlacement(t, engine, b, plan, pe)
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
		checkPlacement(t, tr, b, plan, p)
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

// countingReader counts the reads an entropy source serves.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// assertRestored runs dryRun and fails unless it left the tree exactly as
// found: the same Snapshot bytes (shape, child order, members, key IDs and
// material, nextID, counters), sound parent pointers, leaf counts and leaf
// map, planner counters, coherent maintained lists with as many cached
// entries, an empty undo log, and not one read from the entropy source.
func assertRestored(t *testing.T, tr *Tree, entropy *countingReader, when string, dryRun func()) {
	t.Helper()
	snapshot := func() []byte {
		blob, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	before, stats, pstats := snapshot(), tr.Stats(), tr.PlannerStats()
	lists, reads := len(tr.subtreeLists), entropy.reads

	dryRun()

	if !bytes.Equal(snapshot(), before) {
		t.Fatalf("%s: snapshot bytes differ after the dry run", when)
	}
	if err := invariantErr(tr); err != nil {
		t.Fatalf("%s: after the dry run: %v", when, err)
	}
	if got := tr.Stats(); got != stats {
		t.Fatalf("%s: Stats moved: %+v -> %+v", when, stats, got)
	}
	if got := tr.PlannerStats(); got != pstats {
		t.Fatalf("%s: PlannerStats moved: %+v -> %+v", when, pstats, got)
	}
	checkMemberLists(t, tr, when)
	if got := len(tr.subtreeLists); got != lists {
		t.Fatalf("%s: %d cached subtree lists, had %d", when, got, lists)
	}
	if len(tr.undo) != 0 {
		t.Fatalf("%s: %d entries left in the undo log", when, len(tr.undo))
	}
	if got := entropy.reads - reads; got != 0 {
		t.Fatalf("%s: the dry run read entropy %d times", when, got)
	}
}

// TestPlanBatchRestoresTree is the rollback-exactness property: whatever a
// dry run does to the tree, it undoes. Seeded traces cover planned and
// declined batches in both regimes on a tree with warm cached lists; the
// hand-built cases dry-run placements PlanBatch never or rarely reaches.
func TestPlanBatchRestoresTree(t *testing.T) {
	mk := func(t *testing.T, degree int) (*Tree, *countingReader) {
		t.Helper()
		entropy := &countingReader{r: keycrypt.NewDeterministicReader(7)}
		tr, err := New(degree, WithRand(entropy), WithPlanner(PlannerConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		return tr, entropy
	}

	t.Run("traces", func(t *testing.T) {
		// Planned and declined batches, with surplus joins and with surplus
		// departures: every branch of plan's decision.
		var seen [2][2]int
		cached := 0
		for name, batches := range map[string][]Batch{
			"join-heavy":  biasedBatches(5, 3000, 30, 9, 3),
			"small":       biasedBatches(5, 40, 40, 9, 3),
			"leave-heavy": biasedBatches(23, 3000, 30, 3, 9),
			"two-class":   twoClassBatches(5, 3000, 30),
		} {
			tr, entropy := mk(t, 4)
			for i, b := range batches {
				cached += len(tr.subtreeLists)
				var plan Plan
				assertRestored(t, tr, entropy, fmt.Sprintf("%s batch %d", name, i), func() {
					var err error
					if plan, err = tr.PlanBatch(b); err != nil {
						t.Fatal(err)
					}
				})
				if plan.PredictedWraps >= 0 {
					grow, planned := 0, 0
					if len(b.Joins) > len(b.Leaves) {
						grow = 1
					}
					if plan.Planned {
						planned = 1
					}
					seen[grow][planned]++
				}
				p, err := tr.Rekey(b)
				if err != nil {
					t.Fatal(err)
				}
				checkPlacement(t, tr, b, plan, p)
			}
		}
		if cached == 0 {
			t.Fatal("no cached subtree list was at stake")
		}
		if seen[0][0] == 0 || seen[0][1] == 0 || seen[1][0] == 0 || seen[1][1] == 0 {
			t.Fatalf("traces simulated [L>J, J>L] x [declined, planned] = %v batches; need all four", seen)
		}
	})

	// dry places plan on tr as a dry run, hands the transient tree to
	// during, and rolls back; it returns place's error.
	dry := func(t *testing.T, tr *Tree, entropy *countingReader, plan Plan, during func()) (err error) {
		t.Helper()
		assertRestored(t, tr, entropy, "hand-built plan", func() {
			if _, err = tr.place(plan, make(map[*Node]*dirtyInfo), true); err == nil && during != nil {
				during()
			}
			tr.rollback()
		})
		return err
	}

	t.Run("grow into an empty tree", func(t *testing.T) {
		tr, entropy := mk(t, 3)
		err := dry(t, tr, entropy, Plan{Grows: []Growth{{Joiner: 1}, {Joiner: 2}, {Joiner: 3}}}, func() {
			// First leaf is the root, the second splits it, the third attaches.
			if tr.Size() != 3 || tr.root.leaves != 3 || len(tr.root.children) != 3 {
				t.Fatalf("dry grows built size %d, root %+v", tr.Size(), tr.root)
			}
		})
		if err != nil || tr.root != nil {
			t.Fatalf("err %v, root %v", err, tr.root)
		}
	})

	t.Run("removals splice the root", func(t *testing.T) {
		tr, entropy := mk(t, 3)
		populate(t, tr, 40)
		keep, root := tr.root.children[0], tr.root
		var gone []MemberID
		for _, c := range root.children[1:] {
			gone = collectMembers(c, gone)
		}
		err := dry(t, tr, entropy, Plan{Removals: gone}, func() {
			if tr.root != keep || keep.parent != nil || root.children != nil {
				t.Fatal("the root was not spliced away")
			}
		})
		if err != nil || tr.root != root {
			t.Fatalf("err %v, root restored: %v", err, tr.root == root)
		}
	})

	t.Run("removals shrink the tree to one leaf and to none", func(t *testing.T) {
		tr, entropy := mk(t, 2)
		populate(t, tr, 5)
		all := tr.Members()
		if err := dry(t, tr, entropy, Plan{Removals: all[1:]}, func() {
			if !tr.root.IsLeaf() || tr.root.member != all[0] {
				t.Fatal("one leaf should be left, as the root")
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := dry(t, tr, entropy, Plan{Removals: all}, func() {
			if tr.root != nil || tr.Size() != 0 {
				t.Fatal("the tree should be empty")
			}
		}); err != nil {
			t.Fatal(err)
		}
		// The same through the planner: L > J, every hole removed.
		assertRestored(t, tr, entropy, "PlanBatch", func() {
			if _, err := tr.PlanBatch(Batch{Joins: []MemberID{9}, Leaves: all[1:]}); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("candidate turns invalid part-way", func(t *testing.T) {
		tr, entropy := mk(t, 3)
		populate(t, tr, 7)
		// An interior with one spare slot above a leaf: after the fill and
		// the first anchored grow it is full, so the second grow is refused
		// with two thirds of the plan already placed.
		var hole *Node
		walk(tr.root, func(n *Node) {
			if n.IsLeaf() && len(n.parent.children) == tr.degree-1 {
				hole = n
			}
		})
		if hole == nil {
			t.Fatal("no leaf under an interior with exactly one spare slot")
		}
		anchor := hole.parent.key.ID
		b := Batch{Joins: []MemberID{101, 102, 103}, Leaves: []MemberID{hole.member}}
		plan := Plan{
			Fills: []Assignment{{Hole: hole.member, Joiner: 101}},
			Grows: []Growth{{Joiner: 102, Anchor: anchor}, {Joiner: 103, Anchor: anchor}},
		}
		if err := tr.validatePlan(b, plan); err != nil {
			t.Fatal(err)
		}
		if err := dry(t, tr, entropy, plan, nil); !errors.Is(err, ErrInvalidPlan) {
			t.Fatalf("place: %v, want ErrInvalidPlan", err)
		}
		assertRestored(t, tr, entropy, "simulate", func() {
			if s := tr.simulate(b, plan); !s.invalid {
				t.Fatalf("simulate: %+v, want invalid", s)
			}
		})
	})
}

// TestPlanBatchAllocsIndependentOfTreeSize pins what the dry run is for:
// planning a fixed batch allocates per dirty node — (J+L)·depth — and not
// per tree node. A shadow copy of the tree costs two allocations per node.
func TestPlanBatchAllocsIndependentOfTreeSize(t *testing.T) {
	allocs := func(n int) float64 {
		tr, b := planBench(t, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := tr.PlanBatch(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(65536)
	t.Logf("allocations per PlanBatch: %.0f at N=1024, %.0f at N=65536", small, large)
	if large > 2*small {
		t.Fatalf("PlanBatch allocates %.0f times at N=65536, %.0f at N=1024: more than the extra depth explains", large, small)
	}
}

// FuzzPlanBatch fuzzes the planner end to end: a seeded tree receives an
// arbitrary batch; planning must leave the tree exactly as found, and the
// plan must validate, apply cleanly, realize exactly its predicted wrap
// count and cost, and leave the tree structurally sound.
func FuzzPlanBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(9), uint8(1))
	f.Add(int64(7), uint8(50), uint8(9), uint8(2), uint8(0))
	f.Add(int64(42), uint8(5), uint8(0), uint8(5), uint8(2))
	f.Add(int64(99), uint8(33), uint8(8), uint8(8), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, initial, nJoin, nLeave, degSel uint8) {
		degree := 2 + int(degSel%4)
		entropy := &countingReader{r: keycrypt.NewDeterministicReader(uint64(seed))}
		tr, err := New(degree, WithRand(entropy), WithPlanner(PlannerConfig{}))
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

		var plan Plan
		assertRestored(t, tr, entropy, "PlanBatch", func() {
			if plan, err = tr.PlanBatch(b); err != nil {
				t.Fatal(err)
			}
		})
		if err := tr.validatePlan(b, plan); err != nil {
			t.Fatalf("planner emitted invalid plan: %v", err)
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatalf("planned batch failed to apply: %v", err)
		}
		checkPlacement(t, tr, b, plan, p)

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
