package keytree

import (
	"testing"
	"testing/quick"

	"groupkey/internal/keycrypt"
)

func TestRekeySingleLeaveCryptoContract(t *testing.T) {
	tr := newTestTree(t, 4, 20)
	populate(t, tr, 64)
	pre := snapshotViews(t, tr)
	b := Batch{Leaves: []MemberID{13}}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	checkInvariants(t, tr)
	verifyRekeyRound(t, tr, pre, b, p)
}

func TestRekeySingleJoinCryptoContract(t *testing.T) {
	tr := newTestTree(t, 4, 21)
	populate(t, tr, 63)
	pre := snapshotViews(t, tr)
	b := Batch{Joins: []MemberID{500}}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	checkInvariants(t, tr)
	verifyRekeyRound(t, tr, pre, b, p)
}

func TestRekeyMixedBatchCryptoContract(t *testing.T) {
	tr := newTestTree(t, 4, 22)
	populate(t, tr, 128)
	pre := snapshotViews(t, tr)
	b := Batch{
		Joins:  []MemberID{300, 301, 302},
		Leaves: []MemberID{5, 50, 77, 90, 128},
	}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	checkInvariants(t, tr)
	verifyRekeyRound(t, tr, pre, b, p)
}

func TestRekeyJoinsOnlyUsesOldKeyWraps(t *testing.T) {
	tr := newTestTree(t, 4, 23)
	populate(t, tr, 64)
	pre := snapshotViews(t, tr)
	b := Batch{Joins: []MemberID{200, 201}}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	verifyRekeyRound(t, tr, pre, b, p)

	oldWraps, childWraps := 0, 0
	for _, it := range p.Items {
		switch it.Kind {
		case OldKeyWrap:
			oldWraps++
		case ChildWrap:
			childWraps++
		}
	}
	if oldWraps == 0 {
		t.Error("join-only batch produced no OldKeyWrap items")
	}
	// Adding to a 64-member full d=4 tree may split a leaf (ChildWraps for
	// the fresh interior node) but must not child-wrap pre-existing keys.
	for _, it := range p.Items {
		if it.Kind == ChildWrap && it.Level == 0 {
			t.Error("join-only batch child-wrapped the root (should use the old root key)")
		}
	}
	_ = childWraps
}

func TestRekeyDepartureCostMatchesLKHBound(t *testing.T) {
	// Single departure from a full, balanced d-ary tree must cost about
	// d·log_d(N) multicast keys (paper Section 3.1).
	tests := []struct {
		degree, n int
	}{
		{2, 64}, {4, 256}, {4, 1024}, {8, 512},
	}
	for _, tt := range tests {
		tr := newTestTree(t, tt.degree, uint64(30+tt.degree))
		populate(t, tr, tt.n)
		h := tr.Height()
		p, err := tr.Leave(MemberID(tt.n / 2))
		if err != nil {
			t.Fatalf("Leave: %v", err)
		}
		got := p.MulticastKeyCount()
		// Updated keys: the h ancestors of the departed leaf, each wrapped
		// under its surviving children. For d>2 the leaf's parent keeps d-1
		// children: cost d·h − 1. For d=2 the parent is left with a single
		// child and spliced out entirely: cost 2·(h−1).
		want := tt.degree*h - 1
		if tt.degree == 2 {
			want = 2 * (h - 1)
		}
		if got != want {
			t.Errorf("d=%d N=%d: departure cost %d keys, want %d", tt.degree, tt.n, got, want)
		}
	}
}

func TestRekeyBatchOverlapSavesKeys(t *testing.T) {
	// Two departures sharing ancestors must cost less than twice one
	// departure (Section 2.1.1: overlapping paths are paid once).
	build := func() *Tree {
		tr := newTestTree(t, 4, 31)
		populate(t, tr, 256)
		return tr
	}
	tr1 := build()
	pSolo, err := tr1.Leave(1)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	solo := pSolo.MulticastKeyCount()

	tr2 := build()
	// Members 1 and 2 are siblings in deterministic population order.
	pBoth, err := tr2.Rekey(Batch{Leaves: []MemberID{1, 2}})
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	both := pBoth.MulticastKeyCount()
	if both >= 2*solo {
		t.Errorf("batched departures cost %d, no cheaper than 2 singles (%d)", both, 2*solo)
	}
}

func TestRekeyReceiversSets(t *testing.T) {
	tr := newTestTree(t, 4, 32)
	populate(t, tr, 64)
	b := Batch{Leaves: []MemberID{9}}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	// Receivers of root-level child wraps must partition the remaining
	// membership: every member needs the new root exactly once.
	seen := make(map[MemberID]int)
	lists := receiverOracle(tr, p.Items)
	for i, it := range p.Items {
		if it.Level != 0 {
			continue
		}
		if it.Kind != ChildWrap {
			t.Fatalf("root item kind %v after departure, want ChildWrap", it.Kind)
		}
		if it.Receivers != nil {
			t.Fatalf("multicast item %d carries a receiver list", i)
		}
		for _, m := range lists[i] {
			seen[m]++
		}
	}
	if len(seen) != tr.Size() {
		t.Fatalf("root wraps reach %d members, want %d", len(seen), tr.Size())
	}
	for m, c := range seen {
		if c != 1 {
			t.Errorf("member %d appears in %d root wraps, want 1", m, c)
		}
	}
	if _, ok := seen[9]; ok {
		t.Error("departed member 9 listed as receiver")
	}
}

func TestRekeyEmptyBatchNoCost(t *testing.T) {
	tr := newTestTree(t, 4, 33)
	populate(t, tr, 16)
	rootBefore, _ := tr.RootKey()
	p, err := tr.Rekey(Batch{})
	if err != nil {
		t.Fatalf("Rekey(empty): %v", err)
	}
	if p.TotalKeyCount() != 0 {
		t.Errorf("empty batch cost %d keys, want 0", p.TotalKeyCount())
	}
	rootAfter, _ := tr.RootKey()
	if !rootBefore.Equal(rootAfter) {
		t.Error("empty batch changed the root key")
	}
}

func TestRekeyRootVersionAdvances(t *testing.T) {
	tr := newTestTree(t, 4, 34)
	populate(t, tr, 16)
	r0, _ := tr.RootKey()
	if _, err := tr.Leave(7); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	r1, _ := tr.RootKey()
	if r1.ID != r0.ID {
		t.Fatalf("root ID changed %v -> %v on departure", r0.ID, r1.ID)
	}
	if r1.Version != r0.Version+1 {
		t.Errorf("root version %d -> %d, want +1", r0.Version, r1.Version)
	}
	if r1.SameMaterial(r0) {
		t.Error("root material unchanged after departure")
	}
}

func TestRekeyPaperExample(t *testing.T) {
	// Reconstruct the paper's Fig. 1 scenario: degree 3, nine members
	// U1..U9, then U4 departs. The departure procedure must emit exactly
	// five encrypted keys: K'1-9 under {K123, K'456, K789} and K'456 under
	// {K5, K6}.
	tr := newTestTree(t, 3, 35)
	populate(t, tr, 9)
	checkInvariants(t, tr)
	if h := tr.Height(); h != 2 {
		t.Fatalf("height=%d, want 2 for 9 members at degree 3", h)
	}
	pre := snapshotViews(t, tr)
	b := Batch{Leaves: []MemberID{4}}
	p, err := tr.Rekey(b)
	if err != nil {
		t.Fatalf("Rekey: %v", err)
	}
	if got := p.MulticastKeyCount(); got != 5 {
		t.Errorf("U4 departure cost %d keys, paper says 5", got)
	}
	verifyRekeyRound(t, tr, pre, b, p)
}

func TestRekeyQuickPropertyRandomBatches(t *testing.T) {
	// Property: for arbitrary (small) join/leave batch shapes, the crypto
	// contract holds and invariants are preserved.
	type scenario struct {
		Seed   uint64
		NPre   uint8 // initial size
		NJoin  uint8
		NLeave uint8
	}
	run := func(s scenario) bool {
		nPre := int(s.NPre%100) + 1
		nJoin := int(s.NJoin % 8)
		nLeave := int(s.NLeave % 8)
		if nLeave > nPre {
			nLeave = nPre
		}
		tr, err := New(3, WithRand(keycrypt.NewDeterministicReader(s.Seed)))
		if err != nil {
			return false
		}
		b0 := Batch{}
		for i := 1; i <= nPre; i++ {
			b0.Joins = append(b0.Joins, MemberID(i))
		}
		if _, err := tr.Rekey(b0); err != nil {
			return false
		}
		b := Batch{}
		for i := 0; i < nJoin; i++ {
			b.Joins = append(b.Joins, MemberID(1000+i))
		}
		for i := 0; i < nLeave; i++ {
			b.Leaves = append(b.Leaves, MemberID(i+1))
		}
		pre := snapshotViewsQuiet(tr)
		p, err := tr.Rekey(b)
		if err != nil {
			return false
		}
		if invariantErr(tr) != nil {
			return false
		}
		return verifyRekeyRoundQuiet(tr, pre, b, p)
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// snapshotViewsQuiet is snapshotViews without *testing.T, for quick.Check.
func snapshotViewsQuiet(tr *Tree) map[MemberID]*memberView {
	views := make(map[MemberID]*memberView, tr.Size())
	for _, m := range tr.Members() {
		path, err := tr.Path(m)
		if err != nil {
			return nil
		}
		views[m] = newMemberView(m, path)
	}
	return views
}

// verifyRekeyRoundQuiet is verifyRekeyRound returning bool, for quick.Check.
func verifyRekeyRoundQuiet(tr *Tree, pre map[MemberID]*memberView, b Batch, p *Payload) bool {
	departed := make(map[MemberID]bool, len(b.Leaves))
	for _, m := range b.Leaves {
		departed[m] = true
	}
	for m, view := range pre {
		if departed[m] {
			if view.apply(p) != 0 {
				return false
			}
			continue
		}
		view.apply(p)
		path, err := tr.Path(m)
		if err != nil {
			return false
		}
		for _, k := range path {
			if !view.canRecover(k) {
				return false
			}
		}
	}
	for _, m := range b.Joins {
		leaf, err := tr.Leaf(m)
		if err != nil {
			return false
		}
		view := newMemberView(m, []keycrypt.Key{leaf.Key()})
		view.apply(p)
		path, err := tr.Path(m)
		if err != nil {
			return false
		}
		for _, k := range path {
			if !view.canRecover(k) {
				return false
			}
		}
	}
	return true
}
