package keytree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"groupkey/internal/keycrypt"
)

// checkMemberLists fails on any incoherence between the tree and its
// maintained lists: a missed invalidation shows up as a cached subtree
// list that differs from a fresh walk, or as an entry for a node that is no
// longer part of the tree.
func checkMemberLists(t *testing.T, tr *Tree, when string) {
	t.Helper()
	want := make([]MemberID, 0, len(tr.leaves))
	for m := range tr.leaves {
		want = append(want, m)
	}
	slices.Sort(want)
	if got := tr.MembersView(); !slices.Equal(got, want) {
		t.Fatalf("%s: MembersView has %d members, leaf map %d (or order differs)", when, len(got), len(want))
	}
	for n, got := range tr.subtreeLists {
		if !tr.attached(n) {
			t.Fatalf("%s: cached list for detached node %v", when, n.key.ID)
		}
		if n.IsLeaf() || n.leaves < subtreeListFloor {
			t.Fatalf("%s: cached list for node %v with %d leaves", when, n.key.ID, n.leaves)
		}
		fresh := collectMembers(n, nil)
		slices.Sort(fresh)
		if !slices.Equal(got, fresh) {
			t.Fatalf("%s: stale list for node %v: cached %d members, subtree holds %d",
				when, n.key.ID, len(got), len(fresh))
		}
	}
}

// TestMemberListsStayCoherent drives seeded mixed batches — fills, removals
// with splices, grows with leaf splits, planner anchors — through trees
// large enough that several levels sit above subtreeListFloor, and after
// every Rekey checks the maintained lists against the tree and the payload
// against the legacy emitter, which derives every receiver list by walking.
func TestMemberListsStayCoherent(t *testing.T) {
	batches, cached := 0, 0
	for _, tc := range []struct {
		degree  int
		planner bool
		seed    int64
	}{{2, false, 1}, {3, true, 2}, {4, false, 3}, {4, true, 4}} {
		name := fmt.Sprintf("d=%d/planner=%v", tc.degree, tc.planner)
		mk := func(opts ...Option) *Tree {
			opts = append(opts, WithRand(keycrypt.NewDeterministicReader(uint64(tc.seed))))
			if tc.planner {
				opts = append(opts, WithPlanner(PlannerConfig{}))
			}
			tr, err := New(tc.degree, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		tr, oracle := mk(), mk(WithLegacyRekey())
		for i, b := range goldenBatches(tc.seed, 2000, 60) {
			when := fmt.Sprintf("%s batch %d", name, i)
			p, err := tr.Rekey(b)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			po, err := oracle.Rekey(b)
			if err != nil {
				t.Fatalf("%s: oracle: %v", when, err)
			}
			if !bytes.Equal(marshalPayload(t, p), marshalPayload(t, po)) {
				t.Fatalf("%s: payload differs from the walking emitter's", when)
			}
			checkMemberLists(t, tr, when)
			// Members is the caller's to scribble on; the next batch's
			// checks would catch the view sharing its backing array.
			clear(tr.Members())
			checkMemberLists(t, tr, when+" after Members() was overwritten")
			batches++
			cached += len(tr.subtreeLists)
		}
	}
	if batches < 200 {
		t.Fatalf("only %d batches ran", batches)
	}
	if cached/batches < 4 {
		t.Fatalf("side table held %d lists over %d batches: the cache is not being exercised", cached, batches)
	}
}

// failAfter passes reads through until its budget of bytes is spent.
type failAfter struct {
	r      io.Reader
	budget int
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.budget < len(p) {
		return 0, errors.New("entropy exhausted")
	}
	f.budget -= len(p)
	return f.r.Read(p)
}

// TestMembersAfterRestoreAndFailedRekey covers the two ways a tree goes
// cold: Restore builds no lists, and a Rekey that fails part-way drops them
// because the batch may be partly applied.
func TestMembersAfterRestoreAndFailedRekey(t *testing.T) {
	batches := goldenBatches(5, 600, 6)
	src := &failAfter{r: keycrypt.NewDeterministicReader(5), budget: 1 << 30}
	tr, err := New(4, WithRand(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := tr.Rekey(b); err != nil {
			t.Fatal(err)
		}
	}
	want := tr.Members()

	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, WithRand(keycrypt.NewDeterministicReader(6)))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Members(); !slices.Equal(got, want) {
		t.Fatalf("restored tree lists %d members, original %d", len(got), len(want))
	}
	checkMemberLists(t, restored, "restored")

	// One more batch with the entropy cut off after ever more bytes, so the
	// failure lands in fills, grows, the refresh pass and the nonce draws.
	next := MemberID(1 << 20)
	failures := 0
	for budget := 0; budget < 4096; budget += 37 {
		b := Batch{Leaves: tr.Members()[:5]}
		for i := 0; i < 8; i++ {
			b.Joins = append(b.Joins, next)
			next++
		}
		tr.MembersView() // warm, so a failure has lists to drop
		src.budget = budget
		_, err := tr.Rekey(b)
		src.budget = 1 << 30
		when := fmt.Sprintf("budget %d (err=%v)", budget, err)
		if err != nil {
			failures++
			if tr.members != nil || tr.subtreeLists != nil {
				t.Fatalf("%s: failed Rekey kept its lists", when)
			}
		}
		checkMemberLists(t, tr, when)
		// The tree stays usable: the next epoch rekeys and stays coherent.
		if _, err := tr.Rekey(Batch{Joins: []MemberID{next}}); err != nil {
			t.Fatalf("%s: follow-up rekey: %v", when, err)
		}
		next++
		checkMemberLists(t, tr, when+" follow-up")
	}
	if failures < 10 {
		t.Fatalf("only %d of the budgets made Rekey fail", failures)
	}
}

// TestWarmRekeyVisitsFewLeaves pins the point of the subtree cache: once
// warm, a rekey along one path reads its clean siblings' lists from the
// side table instead of walking the frontier, which is every leaf.
func TestWarmRekeyVisitsFewLeaves(t *testing.T) {
	const n = 1 << 16
	tr, err := New(4, WithRand(keycrypt.NewDeterministicReader(9)))
	if err != nil {
		t.Fatal(err)
	}
	prime := Batch{}
	for i := 1; i <= n; i++ {
		prime.Joins = append(prime.Joins, MemberID(i))
	}
	if _, err := tr.Rekey(prime); err != nil {
		t.Fatal(err)
	}
	base := tr.leavesVisited
	if _, err := tr.Leave(1); err != nil { // warms every off-path subtree
		t.Fatal(err)
	}
	cold := tr.leavesVisited - base
	if _, err := tr.Rekey(Batch{Leaves: []MemberID{n / 2}, Joins: []MemberID{n + 1}}); err != nil {
		t.Fatal(err)
	}
	warm := tr.leavesVisited - base - cold
	t.Logf("leaves visited: %d cold, %d warm (N=%d)", cold, warm, n)
	if cold < n/2 {
		t.Fatalf("cold rekey visited only %d of %d leaves: the counter is not counting", cold, n)
	}
	if warm >= n/8 {
		t.Fatalf("warm single-path rekey visited %d leaves, want < %d", warm, n/8)
	}
}

// TestSplicedInteriorDropsItsList builds the shape seeded churn on a
// balanced tree almost never reaches: a cached interior whose second child
// is a lone leaf. Removing that leaf splices the interior out of the tree,
// and its list has to leave the side table with it.
func TestSplicedInteriorDropsItsList(t *testing.T) {
	tr, err := New(2, WithRand(keycrypt.NewDeterministicReader(3)))
	if err != nil {
		t.Fatal(err)
	}
	var prime Batch
	for i := 1; i <= 512; i++ {
		prime.Joins = append(prime.Joins, MemberID(i))
	}
	if _, err := tr.Rekey(prime); err != nil {
		t.Fatal(err)
	}
	x := tr.root.children[0]
	// Hollow out x's second child down to one leaf.
	doomed := collectMembers(x.children[1], nil)
	lone := doomed[0]
	if _, err := tr.Rekey(Batch{Leaves: doomed[1:]}); err != nil {
		t.Fatal(err)
	}
	if tr.leaves[lone].parent != x || x.leaves < subtreeListFloor {
		t.Fatalf("setup: lone leaf's parent is not x (x has %d leaves)", x.leaves)
	}
	// A departure in the other half leaves x clean on the frontier: cached.
	if _, err := tr.Leave(collectMembers(tr.root.children[1], nil)[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.subtreeLists[x]; !ok {
		t.Fatal("setup: x was not cached")
	}
	if _, err := tr.Leave(lone); err != nil {
		t.Fatal(err)
	}
	if tr.attached(x) {
		t.Fatal("setup: x was not spliced out")
	}
	checkMemberLists(t, tr, "after the splice")
}
