package keytree

import (
	"testing"

	"groupkey/internal/keycrypt"
)

// liveNodes counts the nodes in the tree: the keys it may still wrap under.
func liveNodes(tr *Tree) int {
	n := 0
	walk(tr.root, func(*Node) { n++ })
	return n
}

// TestTreeCacheHoldsOnlyLiveKeys runs seeded churn through sealed rekeys and
// requires the tree's key-schedule cache never to hold more entries than
// the tree has nodes, and nothing at all once every member has left: a
// filled hole's leaf key, a removed leaf's and a spliced interior's leave
// the cache with the key. The planner's dry runs touch the cache not at
// all, so the bound holds with it on too.
func TestTreeCacheHoldsOnlyLiveKeys(t *testing.T) {
	for _, planner := range []bool{false, true} {
		opts := []Option{WithRand(keycrypt.NewDeterministicReader(5))}
		if planner {
			opts = append(opts, WithPlanner(PlannerConfig{}))
		}
		tr, err := New(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		present := map[MemberID]bool{}
		peak := 0
		for i, b := range fuzzBatches(11, 1000, 200) {
			if _, err := tr.Rekey(b); err != nil {
				t.Fatalf("planner=%v batch %d: %v", planner, i, err)
			}
			for _, m := range b.Leaves {
				delete(present, m)
			}
			for _, m := range b.Joins {
				present[m] = true
			}
			got, live := tr.wrapper.Len(), liveNodes(tr)
			if got > live {
				t.Fatalf("planner=%v batch %d: cache holds %d schedules, tree has %d nodes", planner, i, got, live)
			}
			peak = max(peak, got)
		}
		if peak == 0 {
			t.Fatalf("planner=%v: the cache never held a schedule", planner)
		}
		var last Batch
		for m := range present {
			last.Leaves = append(last.Leaves, m)
		}
		if _, err := tr.Rekey(last); err != nil {
			t.Fatal(err)
		}
		if tr.Size() != 0 || tr.wrapper.Len() != 0 {
			t.Fatalf("planner=%v: empty tree of size %d keeps %d schedules", planner, tr.Size(), tr.wrapper.Len())
		}
	}
}

// TestPendingWrapsSealAllocs seals item and joiner jobs inline under a warm
// cache: running the two job lists as one must not copy them into one, and
// drawing their nonces must not allocate a buffer for them.
func TestPendingWrapsSealAllocs(t *testing.T) {
	payload, wrapper := keycrypt.Random(1, 0), keycrypt.Random(2, 0)
	jobs := func(n int) []wrapJob {
		js := make([]wrapJob, n)
		for i := range js {
			js[i] = wrapJob{payload: payload, wrapper: wrapper}
		}
		return js
	}
	items, joiners := make([]Item, 64), make([]Item, 64)
	pending := PendingWraps{
		items: jobs(64), joiners: jobs(64), nonces: make([]byte, 128*keycrypt.NonceSize),
		rand: keycrypt.NewDeterministicReader(1), wrapper: keycrypt.NewWrapper(), workers: 1,
	}
	w := pending
	if err := w.Seal(items, joiners); err != nil { // warm the cache
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		w = pending
		if err := w.Seal(items, joiners); err != nil {
			t.Fatal(err)
		}
	})
	// Under the race detector each job's pooled scratch may be a fresh one.
	bound := 0.0
	if raceEnabled {
		bound = float64(len(items) + len(joiners))
	}
	if got > bound {
		t.Errorf("Seal of 64+64 jobs allocates %.1f objects/op, want <= %.0f", got, bound)
	}
}
