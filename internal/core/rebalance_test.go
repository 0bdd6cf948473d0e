package core

import (
	"testing"

	"groupkey/internal/keytree"
)

// TestMigrateRestoresBalance covers the Moyer et al. [MRR99] concern from
// the paper's Section 2.3 — keeping the key tree balanced. Two findings:
// first, splice-on-removal already self-compacts a drained tree (the
// common case needs no explicit rebalancing at all); second, for whatever
// skew remains, Migrate rebuilds the survivors into a fresh balanced tree
// with every member following in one payload.
func TestMigrateRestoresBalance(t *testing.T) {
	old, err := NewOneTree(rnd(700))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, old)
	big := Batch{}
	for i := 1; i <= 1024; i++ {
		big.Joins = append(big.Joins, Join{ID: keytree.MemberID(i)})
	}
	h.process(big)
	fullHeight := old.Tree().Height() // 5 for 1024 members at d=4

	// 7 of 8 members depart: survivors keep their old depths.
	exodus := Batch{}
	for i := 1; i <= 1024; i++ {
		if i%8 != 0 {
			exodus.Leaves = append(exodus.Leaves, keytree.MemberID(i))
		}
	}
	h.process(exodus)
	if old.Size() != 128 {
		t.Fatalf("Size=%d, want 128", old.Size())
	}
	drainedHeight := old.Tree().Height()
	// Finding 1: splicing self-compacts — uniform drains need no explicit
	// rebalance (128 members want height 4).
	if drainedHeight > 5 {
		t.Fatalf("drained tree height %d; splicing failed to compact (full tree was %d)",
			drainedHeight, fullHeight)
	}

	// Finding 2: an explicit rebalance-by-migration lands exactly on the
	// balanced optimum and carries every member along.
	fresh, err := NewOneTree(rnd(701), WithKeyIDBase(1<<50))
	if err != nil {
		t.Fatal(err)
	}
	rekey, err := Migrate(old, fresh, nil)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := fresh.Tree().Height(); got != 4 {
		t.Fatalf("rebalanced height %d, want 4 (drained was %d, full tree was %d)", got, drainedHeight, fullHeight)
	}
	// Every survivor follows the migration payload to its new full path.
	items := rekey.AllItems()
	dek, _ := fresh.GroupKey()
	for id, c := range h.clients {
		c.Apply(items)
		if !c.Has(dek) {
			t.Fatalf("member %d lost the group across the rebalance", id)
		}
		want, err := fresh.MemberKeys(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range want {
			if !c.Has(k) {
				t.Fatalf("member %d missing rebalanced path key %v", id, k)
			}
		}
	}
	// Future departures are now cheaper: log-depth paths again.
	r, err := fresh.ProcessBatch(Batch{Leaves: []keytree.MemberID{8}})
	if err != nil {
		t.Fatal(err)
	}
	if r.MulticastKeyCount() > 4*4 {
		t.Fatalf("post-rebalance departure cost %d, want ≤ d·h = 16", r.MulticastKeyCount())
	}
}
