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
// maintained member list: the view must equal the sorted leaf map.
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
}

// TestMemberListsStayCoherent drives seeded mixed batches — fills, removals
// with splices, grows with leaf splits, planner anchors — and after every
// Rekey checks the maintained member list against the tree, and the
// payload against a tree emitting on one worker.
func TestMemberListsStayCoherent(t *testing.T) {
	batches := 0
	for _, tc := range []struct {
		degree  int
		planner bool
		seed    int64
	}{{2, false, 1}, {3, true, 2}, {4, false, 3}, {4, true, 4}} {
		name := fmt.Sprintf("d=%d/planner=%v", tc.degree, tc.planner)
		mk := func(workers int) *Tree {
			opts := []Option{WithRand(keycrypt.NewDeterministicReader(uint64(tc.seed))), WithWrapWorkers(workers)}
			if tc.planner {
				opts = append(opts, WithPlanner(PlannerConfig{}))
			}
			tr, err := New(tc.degree, opts...)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		tr, oracle := mk(8), mk(1)
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
				t.Fatalf("%s: payload differs from the one-worker emitter's", when)
			}
			checkMemberLists(t, tr, when)
			// Members is the caller's to scribble on; the next batch's
			// checks would catch the view sharing its backing array.
			clear(tr.Members())
			checkMemberLists(t, tr, when+" after Members() was overwritten")
			batches++
		}
	}
	if batches < 200 {
		t.Fatalf("only %d batches ran", batches)
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
// cold: Restore builds no member list, and a Rekey that fails part-way
// drops it because the batch may be partly applied.
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
		tr.MembersView() // warm, so a failure has a list to drop
		src.budget = budget
		_, err := tr.Rekey(b)
		src.budget = 1 << 30
		when := fmt.Sprintf("budget %d (err=%v)", budget, err)
		if err != nil {
			failures++
			if tr.members != nil {
				t.Fatalf("%s: failed Rekey kept its member list", when)
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
