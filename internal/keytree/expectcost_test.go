package keytree

import (
	"math"
	"testing"

	"groupkey/internal/analytic"
	"groupkey/internal/keycrypt"
)

func TestExpectedRekeyCostMatchesClosedFormOnFullTree(t *testing.T) {
	// On a full balanced tree the exact per-node sum must reproduce the
	// implementation-aware closed form (the paper's Ne minus the redundant
	// replaced-subtree wraps this library never multicasts).
	for _, tt := range []struct {
		d, n, l int
	}{
		{4, 256, 8}, {4, 1024, 32}, {2, 256, 16}, {8, 512, 4},
	} {
		tr := newTestTree(t, tt.d, uint64(tt.n+tt.d))
		populate(t, tr, tt.n)
		exact := tr.ExpectedRekeyCost(tt.l)
		closed := analytic.BatchRekeyCostImpl(float64(tt.n), float64(tt.l), tt.d)
		if math.Abs(exact-closed)/closed > 1e-6 {
			t.Errorf("d=%d n=%d l=%d: exact %v vs impl closed form %v", tt.d, tt.n, tt.l, exact, closed)
		}
		// And the paper's unmodified Ne sits exactly one correction above.
		paper := analytic.BatchRekeyCost(float64(tt.n), float64(tt.l), tt.d)
		if paper <= exact {
			t.Errorf("d=%d n=%d l=%d: paper Ne %v not above exact %v", tt.d, tt.n, tt.l, paper, exact)
		}
	}
}

func TestExpectedRekeyCostMatchesSimulation(t *testing.T) {
	// The exact expectation must match the empirical mean of real rekey
	// batches (J=L replacement) on the same tree shape.
	const n, l, trials = 243, 9, 120
	tr := newTestTree(t, 3, 77)
	populate(t, tr, n)
	want := tr.ExpectedRekeyCost(l)

	rng := keycrypt.NewDeterministicReader(78)
	pick := func(k int) int {
		var b [2]byte
		rng.Read(b[:])
		return (int(b[0])<<8 | int(b[1])) % k
	}
	nextID := MemberID(10000)
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		members := tr.Members()
		b := Batch{}
		chosen := make(map[int]bool, l)
		for len(b.Leaves) < l {
			i := pick(len(members))
			if chosen[i] {
				continue
			}
			chosen[i] = true
			b.Leaves = append(b.Leaves, members[i])
		}
		for j := 0; j < l; j++ {
			b.Joins = append(b.Joins, nextID)
			nextID++
		}
		p, err := tr.Rekey(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum += float64(p.MulticastKeyCount())
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical mean %v vs exact expectation %v (>5%% off)", got, want)
	}
}

func TestExpectedRekeyCostPartialTreeBelowClosedForm(t *testing.T) {
	// For a partially full tree, the exact value and the continuous
	// implementation-aware model must agree within a few percent (the
	// continuous layout only approximates the real shape).
	tr := newTestTree(t, 4, 79)
	populate(t, tr, 700) // between 4^4 and 4^5
	exact := tr.ExpectedRekeyCost(20)
	model := analytic.BatchRekeyCostImpl(700, 20, 4)
	if math.Abs(exact-model)/model > 0.10 {
		t.Fatalf("exact %v vs continuous impl model %v differ by >10%%", exact, model)
	}
}

func TestExpectedRekeyCostDegenerate(t *testing.T) {
	tr := newTestTree(t, 4, 80)
	if got := tr.ExpectedRekeyCost(1); got != 0 {
		t.Errorf("empty tree cost %v", got)
	}
	populate(t, tr, 16)
	if got := tr.ExpectedRekeyCost(0); got != 0 {
		t.Errorf("l=0 cost %v", got)
	}
	// l > n clamps.
	if a, b := tr.ExpectedRekeyCost(16), tr.ExpectedRekeyCost(99); math.Abs(a-b) > 1e-9 {
		t.Errorf("l>n not clamped: %v vs %v", a, b)
	}
}

func TestOFTExpectedRekeyCostMatchesSimulation(t *testing.T) {
	const n, l, trials = 128, 4, 120
	h := newOFTHarness(t, 81)
	joins := Batch{}
	for i := 1; i <= n; i++ {
		joins.Joins = append(joins.Joins, MemberID(i))
	}
	h.process(joins)
	want := h.tree.ExpectedRekeyCost(l)

	rng := keycrypt.NewDeterministicReader(82)
	pick := func(k int) int {
		var b [2]byte
		rng.Read(b[:])
		return (int(b[0])<<8 | int(b[1])) % k
	}
	nextID := MemberID(10000)
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		members := h.tree.Members()
		b := Batch{}
		chosen := make(map[int]bool, l)
		for len(b.Leaves) < l {
			i := pick(len(members))
			if chosen[i] {
				continue
			}
			chosen[i] = true
			b.Leaves = append(b.Leaves, members[i])
		}
		for j := 0; j < l; j++ {
			b.Joins = append(b.Joins, nextID)
			nextID++
		}
		p := h.process(b)
		sum += float64(p.MulticastKeyCount())
	}
	got := sum / trials
	if math.Abs(got-want)/want > 0.06 {
		t.Fatalf("OFT empirical mean %v vs exact expectation %v (>6%% off)", got, want)
	}
}

func TestOFTCostHalfOfLKHBinary(t *testing.T) {
	// Quantify Section 2.1.1: per batch, OFT transmits roughly half the
	// keys of a binary LKH tree for the same membership and churn.
	lkh := newTestTree(t, 2, 83)
	populate(t, lkh, 512)
	oft, err := NewOFT(WithRand(keycrypt.NewDeterministicReader(84)))
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{}
	for i := 1; i <= 512; i++ {
		b.Joins = append(b.Joins, MemberID(i))
	}
	if _, err := oft.Rekey(b); err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 8, 32} {
		ratio := oft.ExpectedRekeyCost(l) / lkh.ExpectedRekeyCost(l)
		if ratio < 0.4 || ratio > 0.75 {
			t.Errorf("l=%d: OFT/LKH cost ratio %v, want ≈0.5–0.7", l, ratio)
		}
	}
}

// TestExpectedRekeyCostMatchesDirectEvaluation pins the sum bit for bit to
// the formula evaluated directly — no memo, no shortcut for leaf children —
// in the order the planner's decisions were recorded with: each interior in
// pre-order, each child's term just before descending into it. The planner
// compares these sums between candidate placements with tolerances down to
// 1e-12, and the golden payload digests depend on the outcomes.
func TestExpectedRekeyCostMatchesDirectEvaluation(t *testing.T) {
	direct := func(tr *Tree, l int) float64 {
		n := float64(tr.Size())
		if n <= 1 {
			return 0
		}
		lf := math.Min(float64(l), n)
		total := 0.0
		var visit func(v *Node)
		visit = func(v *Node) {
			if v.IsLeaf() {
				return
			}
			pUpdate := 1 - analytic.ChooseRatio(n, float64(v.leaves), lf)
			for _, c := range v.children {
				if d := pUpdate - analytic.AllChosenProb(n, float64(c.leaves), lf); d > 0 {
					total += d
				}
				visit(c)
			}
		}
		visit(tr.root)
		return total
	}
	for _, d := range []int{2, 3, 4, 5} {
		tr := newTestTree(t, d, uint64(d))
		for i, b := range biasedBatches(int64(d), 700, 40, 9, 9) {
			if _, err := tr.Rekey(b); err != nil {
				t.Fatal(err)
			}
			for _, l := range []int{1, 7, 64, 5000} {
				if got, want := tr.ExpectedRekeyCost(l), direct(tr, l); got != want {
					t.Fatalf("d=%d batch %d l=%d: %v, direct evaluation %v", d, i, l, got, want)
				}
			}
		}
	}
}
