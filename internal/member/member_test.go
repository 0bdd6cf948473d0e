package member

import (
	"math"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

func wrap(t *testing.T, payload, wrapper keycrypt.Key) keytree.Item {
	t.Helper()
	w, err := keycrypt.Wrap(payload, wrapper, keycrypt.NewDeterministicReader(1))
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	return keytree.Item{Wrapped: w}
}

func TestApplyChainsOutOfOrder(t *testing.T) {
	// individual → aux → root must resolve regardless of item order.
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(2)}
	ind, _ := g.New(1, 0)
	aux, _ := g.New(2, 0)
	root, _ := g.New(3, 0)

	m := New(7, ind)
	items := []keytree.Item{
		wrap(t, root, aux), // needs aux first
		wrap(t, aux, ind),
	}
	learned := m.Apply(items)
	if learned != 2 {
		t.Fatalf("learned %d keys, want 2", learned)
	}
	if !m.Has(root) || !m.Has(aux) {
		t.Fatal("member missing chained keys")
	}
}

func TestApplyIgnoresForeignItems(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(3)}
	ind, _ := g.New(1, 0)
	other, _ := g.New(2, 0)
	secret, _ := g.New(3, 0)

	m := New(1, ind)
	if learned := m.Apply([]keytree.Item{wrap(t, secret, other)}); learned != 0 {
		t.Fatalf("learned %d foreign keys", learned)
	}
	if m.Has(secret) {
		t.Fatal("member obtained a key it had no wrapper for")
	}
}

func TestApplyVersionMonotonic(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(4)}
	ind, _ := g.New(1, 0)
	v2, _ := g.New(2, 2)
	v1, _ := g.New(2, 1)

	m := New(1, ind)
	m.Apply([]keytree.Item{wrap(t, v2, ind)})
	if !m.Has(v2) {
		t.Fatal("v2 not learned")
	}
	// A stale version must not downgrade the slot.
	if learned := m.Apply([]keytree.Item{wrap(t, v1, ind)}); learned != 0 {
		t.Fatal("stale key version accepted")
	}
	if !m.Has(v2) {
		t.Fatal("slot downgraded")
	}
}

func TestNeedsSparseness(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(5)}
	ind, _ := g.New(1, 0)
	other, _ := g.New(2, 0)
	k3, _ := g.New(3, 0)

	m := New(1, ind)
	mine := wrap(t, k3, ind)
	foreign := wrap(t, k3, other)
	if !m.Needs(mine) {
		t.Error("member should need an item wrapped for it")
	}
	if m.Needs(foreign) {
		t.Error("member should not need an item it cannot unwrap")
	}
	m.Apply([]keytree.Item{mine})
	if m.Needs(mine) {
		t.Error("member should not need an item twice")
	}
}

func TestForget(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(6)}
	ind, _ := g.New(1, 0)
	m := New(1, ind)
	if m.KeyCount() != 1 {
		t.Fatalf("KeyCount=%d, want 1", m.KeyCount())
	}
	m.Forget(1)
	if m.KeyCount() != 0 {
		t.Fatal("Forget did not drop the key")
	}
	if _, ok := m.Key(1); ok {
		t.Fatal("Key(1) still present")
	}
}

func TestLossEstimation(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(7)}
	ind, _ := g.New(1, 0)
	m := New(1, ind)
	if m.EstimatedLoss() != -1 {
		t.Fatalf("EstimatedLoss with no data = %v, want -1", m.EstimatedLoss())
	}
	m.RecordExpected(100)
	m.RecordReceived(80)
	if got := m.EstimatedLoss(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("EstimatedLoss=%v, want 0.2", got)
	}
}

func TestNeededItemsSparseness(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(8)}
	ind, _ := g.New(1, 0)
	other, _ := g.New(2, 0)
	k3, _ := g.New(3, 0)
	k4, _ := g.New(4, 0)

	m := New(1, ind)
	items := []keytree.Item{
		wrap(t, k3, ind),   // needed
		wrap(t, k4, other), // not ours
	}
	if got := m.NeededItems(items); len(got) != 1 || got[0] != 0 {
		t.Fatalf("NeededItems=%v, want [0]", got)
	}
	m.Apply(items)
	if got := m.NeededItems(items); got != nil {
		t.Fatalf("NeededItems after Apply=%v, want empty", got)
	}
}

// joinerPath is what a joiner receives: depth items, each wrapping one key
// of its path under its leaf key, leaf upwards.
func joinerPath(tb testing.TB, depth int) (leaf keycrypt.Key, path []keycrypt.Key, items []keytree.Item) {
	tb.Helper()
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(9)}
	leaf, err := g.New(100, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for level := depth - 1; level >= 0; level-- {
		k, err := g.New(keycrypt.KeyID(level+1), 3)
		if err != nil {
			tb.Fatal(err)
		}
		w, err := keycrypt.Wrap(k, leaf, g.Rand)
		if err != nil {
			tb.Fatal(err)
		}
		path = append(path, k)
		items = append(items, keytree.Item{Wrapped: w, Kind: keytree.JoinerWrap, Level: level})
	}
	return leaf, path, items
}

// TestApplyExpandsEachWrapperOnce: Apply learns what per-item Unwrap
// learns from a depth-7 joiner path, a tampered item inside the run fails
// on its own, and the run expands the leaf key's schedule once rather than
// once per item.
func TestApplyExpandsEachWrapperOnce(t *testing.T) {
	leaf, path, items := joinerPath(t, 7)
	m := New(1, leaf)
	if learned := m.Apply(items); learned != len(path) {
		t.Fatalf("learned %d keys, want %d", learned, len(path))
	}
	for i, it := range items {
		want, err := keycrypt.Unwrap(it.Wrapped, leaf)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Has(want) || !want.Equal(path[i]) {
			t.Fatalf("item %d: Apply and Unwrap disagree on key %s", i, want.ID)
		}
	}

	tampered := append([]keytree.Item(nil), items...)
	b := tampered[2].Wrapped.Marshal()
	b[len(b)-1] ^= 1
	w, err := keycrypt.UnmarshalWrapped(b)
	if err != nil {
		t.Fatal(err)
	}
	tampered[2].Wrapped = w
	m = New(1, leaf)
	if learned := m.Apply(tampered); learned != len(path)-1 {
		t.Fatalf("with item 2 tampered: learned %d keys, want %d", learned, len(path)-1)
	}
	for i, k := range path {
		if m.Has(k) == (i == 2) {
			t.Fatalf("with item 2 tampered: holds key of item %d = %v", i, m.Has(k))
		}
	}

	// The member and its key map; per-item Unwrap makes it 35. Under the
	// race detector each item's pooled scratch buffer may be a fresh one.
	bound := 2.0
	if raceEnabled {
		bound += float64(len(items))
	}
	allocs := testing.AllocsPerRun(50, func() { New(1, leaf).Apply(items) })
	if allocs > bound {
		t.Errorf("Apply of a depth-7 joiner path, new member included, allocates %.0f objects, want <= %.0f", allocs, bound)
	}
}

// BenchmarkApplyJoinerPath times a joiner absorbing its depth-7 path.
func BenchmarkApplyJoinerPath(b *testing.B) {
	leaf, _, items := joinerPath(b, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(1, leaf).Apply(items)
	}
}

// TestApplyPathAdoptsChain: a key-path chain from the leaf replaces the
// member's copies of its keys whatever their versions — a same-version
// copy with other material and a newer one alike, which Apply keeps — and
// anything that is not such a chain changes nothing.
func TestApplyPathAdoptsChain(t *testing.T) {
	g := keycrypt.Generator{Rand: keycrypt.NewDeterministicReader(9)}
	leaf, _ := g.New(1, 0)
	parent, _ := g.New(2, 3)
	root, _ := g.New(3, 5)
	staleParent, _ := g.New(2, 3) // same version, other material
	staleRoot, _ := g.New(3, 9)   // newer version
	chain := func() []keytree.Item {
		a, b := wrap(t, parent, leaf), wrap(t, root, parent)
		a.Kind, b.Kind = keytree.ChildWrap, keytree.ChildWrap
		return []keytree.Item{a, b}
	}
	behind := func() *Member {
		m := New(7, leaf)
		m.keys[staleParent.ID], m.keys[staleRoot.ID] = staleParent, staleRoot
		return m
	}

	m := behind()
	if m.Apply(chain()) != 0 {
		t.Fatal("Apply replaced keys the member holds at the same or a newer version")
	}
	if !m.ApplyPath(leaf.ID, chain()) || !m.Has(parent) || !m.Has(root) {
		t.Fatal("ApplyPath did not adopt the chain")
	}

	reversed := chain()
	reversed[0], reversed[1] = reversed[1], reversed[0]
	oldKey := chain()
	oldKey[1].Kind = keytree.OldKeyWrap
	otherLeaf, _ := g.New(1, 0)
	brokenTail := chain()
	brokenTail[1] = wrap(t, root, staleParent) // opens only under the stale copy
	brokenTail[1].Kind = keytree.ChildWrap
	for name, tc := range map[string]struct {
		leaf  keycrypt.KeyID
		items []keytree.Item
		m     *Member
	}{
		"out of order":        {leaf.ID, reversed, behind()},
		"not all ChildWrap":   {leaf.ID, oldKey, behind()},
		"not from the leaf":   {leaf.ID, chain()[1:], behind()},
		"leaf not held":       {leaf.ID, chain(), New(7, parent)},
		"other leaf material": {leaf.ID, chain(), New(7, otherLeaf)},
		"tail does not open":  {leaf.ID, brokenTail, behind()},
	} {
		before := tc.m.Snapshot()
		if tc.m.ApplyPath(tc.leaf, tc.items) {
			t.Errorf("%s: adopted", name)
		}
		if string(tc.m.Snapshot()) != string(before) {
			t.Errorf("%s: the key store changed", name)
		}
	}
}
