package core

import (
	"errors"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
)

func TestMigrateOneTreeToTwoPartition(t *testing.T) {
	// Run a group on one-keytree, then switch to TT mid-session: every
	// member must reach the new group key using only keys it already has.
	from, err := NewOneTree(rnd(200))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, from)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)})
	h.process(Batch{Leaves: leaves(4)})

	to, err := NewTwoPartition(TT, 5, rnd(201), WithKeyIDBase(1<<50))
	if err != nil {
		t.Fatal(err)
	}
	rekey, err := Migrate(from, to, nil)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if rekey.Welcome != nil {
		t.Fatal("migration must not use the registration channel")
	}
	if to.Size() != from.Size() {
		t.Fatalf("destination size %d, want %d", to.Size(), from.Size())
	}

	// Replay the migration through the existing clients.
	items := rekey.AllItems()
	newDEK, err := to.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range h.clients {
		c.Apply(items)
		want, err := to.MemberKeys(id)
		if err != nil {
			t.Fatalf("MemberKeys(%d): %v", id, err)
		}
		for _, k := range want {
			if !c.Has(k) {
				t.Fatalf("member %d missing key %v after migration", id, k)
			}
		}
		if !c.Has(newDEK) {
			t.Fatalf("member %d lacks the new group key", id)
		}
	}

	// An outsider holding a key the scheme never issued learns nothing.
	outsider := member.New(4, keycrypt.Random(99999, 0))
	if n := outsider.Apply(items); n != 0 {
		t.Fatalf("outsider decrypted %d migration items", n)
	}
}

func TestMigratePreservesMeta(t *testing.T) {
	from, err := NewOneTree(rnd(203))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, from)
	h.process(Batch{Joins: []Join{
		{ID: 1, Meta: MemberMeta{LossRate: 0.02}},
		{ID: 2, Meta: MemberMeta{LossRate: 0.2}},
		{ID: 3, Meta: MemberMeta{LossRate: 0.03}},
	}})

	to, err := NewLossHomogenized([]float64{0.05}, rnd(204), WithKeyIDBase(1<<50))
	if err != nil {
		t.Fatal(err)
	}
	metas := map[keytree.MemberID]MemberMeta{
		1: {LossRate: 0.02}, 2: {LossRate: 0.2}, 3: {LossRate: 0.03},
	}
	if _, err := Migrate(from, to, func(m keytree.MemberID) MemberMeta { return metas[m] }); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	for id, want := range map[keytree.MemberID]int{1: 0, 2: 1, 3: 0} {
		got, err := to.TreeOf(id)
		if err != nil {
			t.Fatalf("TreeOf(%d): %v", id, err)
		}
		if got != want {
			t.Errorf("member %d landed in tree %d, want %d", id, got, want)
		}
	}
}

func TestMigrateValidation(t *testing.T) {
	a, _ := NewOneTree(rnd(206))
	b, _ := NewOneTree(rnd(207))
	if _, err := Migrate(a, b, nil); !errors.Is(err, ErrEmptyGroup) {
		t.Errorf("empty source: err=%v", err)
	}
	ha := newHarness(t, a)
	ha.process(Batch{Joins: joins(MemberMeta{}, 1, 2)})
	hb := newHarness(t, b)
	hb.process(Batch{Joins: joins(MemberMeta{}, 9)})
	if _, err := Migrate(a, b, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-empty destination: err=%v", err)
	}
	// A one-member OneTree mints no key to place the carried one below.
	c, _ := NewOneTree(rnd(208))
	hc := newHarness(t, c)
	hc.process(Batch{Joins: joins(MemberMeta{}, 5)})
	d, _ := NewOneTree(rnd(209), WithKeyIDBase(1<<50))
	if _, err := Migrate(c, d, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("one-member OneTree destination: err=%v", err)
	}
}

// leafKeys records each member's individual key, MemberKeys(m)[0].
func leafKeys(t *testing.T, s Scheme) map[keytree.MemberID]keycrypt.Key {
	t.Helper()
	out := make(map[keytree.MemberID]keycrypt.Key)
	for _, m := range s.Members() {
		keys, err := s.MemberKeys(m)
		if err != nil {
			t.Fatal(err)
		}
		out[m] = keys[0]
	}
	return out
}

// checkKeptLeaves requires that every member recorded in before still
// holds the same individual key in s (ID, version and material), and that
// no item of r hands any member an individual key: no single-receiver
// item carries one as its payload.
func checkKeptLeaves(t *testing.T, s Scheme, before map[keytree.MemberID]keycrypt.Key, r *Rekey) {
	t.Helper()
	after := leafKeys(t, s)
	leafIDs := make(map[keycrypt.KeyID]bool)
	for m, k := range before {
		if !after[m].Equal(k) {
			t.Fatalf("%s: member %d individual key %v v%d became %v v%d", s.Name(), m, k.ID, k.Version, after[m].ID, after[m].Version)
		}
		leafIDs[k.ID] = true
	}
	for _, it := range r.AllItems() {
		if len(it.Receivers) == 1 && leafIDs[it.Wrapped.PayloadID] {
			t.Fatalf("%s: epoch %d hands member %d an individual key %v", s.Name(), r.Epoch, it.Receivers[0], it.Wrapped.PayloadID)
		}
	}
}

// TestMigrantKeepsIndividualKey: a TT or QT member that migrates from S to
// L keeps its individual key, gets its L path as joiner items wrapped under
// it, and is handed no new leaf; so does every member Migrate moves,
// OneTree to TT and TT to OneTree, and each decrypts the migration from
// keys it held before (the harness checks every member's full path).
func TestMigrantKeepsIndividualKey(t *testing.T) {
	for _, mode := range []PartitionMode{TT, QT} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := NewTwoPartition(mode, 2, rnd(210))
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, s)
			h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6)})
			h.process(Batch{Joins: joins(MemberMeta{}, 7, 8), Leaves: leaves(6)})
			before := leafKeys(t, s)
			r := h.process(Batch{})
			if got := s.LPartitionSize(); got != 5 {
				t.Fatalf("L holds %d members after the migration epoch, want 5", got)
			}
			checkKeptLeaves(t, s, before, r)
			joinerWraps := 0
			for _, it := range r.AllItems() {
				if len(it.Receivers) == 1 {
					joinerWraps++
					if it.Wrapped.WrapperID != before[it.Receivers[0]].ID {
						t.Fatalf("migrant %d's item is wrapped under %v, not its individual key", it.Receivers[0], it.Wrapped.WrapperID)
					}
				}
			}
			if joinerWraps == 0 {
				t.Fatal("the migration epoch carried no joiner items")
			}
			// A migrant that leaves L opens nothing sealed after it left.
			gone := h.clients[2]
			h.process(Batch{Leaves: leaves(2), Joins: joins(MemberMeta{}, 9)})
			for _, b := range []Batch{{Leaves: leaves(4)}, {Joins: joins(MemberMeta{}, 10)}, {}} {
				r := h.process(b)
				dek, err := s.GroupKey()
				if err != nil {
					t.Fatal(err)
				}
				if n := gone.Apply(r.AllItems()); n != 0 || gone.Has(dek) {
					t.Fatalf("departed migrant learned %d keys at epoch %d (group key: %v)", n, r.Epoch, gone.Has(dek))
				}
			}
		})
	}

	one, err := NewOneTree(rnd(211))
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, one)
	h.process(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7)})
	h.process(Batch{Leaves: leaves(3)})
	tt, err := NewTwoPartition(TT, 2, rnd(212), WithKeyIDBase(1<<50))
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewOneTree(rnd(213), WithKeyIDBase(1<<51))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		from, to       Scheme
		joiner, leaver int
	}{{one, tt, 30, 2}, {tt, back, 31, 4}} {
		before := leafKeys(t, step.from)
		r, err := Migrate(step.from, step.to, nil)
		if err != nil {
			t.Fatalf("Migrate %s → %s: %v", step.from.Name(), step.to.Name(), err)
		}
		checkKeptLeaves(t, step.to, before, r)
		for _, st := range r.Streams {
			if st.Label == "migration-bridge" {
				t.Fatal("Migrate still emits a bridge stream")
			}
		}
		h.s = step.to
		items := r.AllItems()
		for id, c := range h.clients {
			c.Apply(items)
			want, err := step.to.MemberKeys(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range want {
				if !c.Has(k) {
					t.Fatalf("%s: member %d lacks %v after the migration", step.to.Name(), id, k.ID)
				}
			}
		}
		h.process(Batch{Joins: joins(MemberMeta{}, step.joiner), Leaves: leaves(step.leaver)})
	}
}

// TestMigrateChainKeyIDs: A → B → A′ where A′ mints from A's key-ID base
// would shadow the keys members carried from A, so Migrate refuses it;
// with A′'s base above every carried ID no minted key shares an ID with a
// carried one.
func TestMigrateChainKeyIDs(t *testing.T) {
	build := func(base keycrypt.KeyID) (Scheme, Scheme) {
		a, err := NewOneTree(rnd(214))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 1, 2, 3, 4, 5, 6, 7, 8, 9)}); err != nil {
			t.Fatal(err)
		}
		b, err := NewTwoPartition(TT, 2, rnd(215), WithKeyIDBase(1<<50))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Migrate(a, b, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 10, 11), Leaves: leaves(2)}); err != nil {
			t.Fatal(err)
		}
		a2, err := NewOneTree(rnd(216), WithKeyIDBase(base))
		if err != nil {
			t.Fatal(err)
		}
		return b, a2
	}
	b, a2 := build(0)
	if _, err := Migrate(b, a2, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("A → B → A′ on A's base: err=%v, want ErrBadConfig", err)
	}
	b, a2 = build(1 << 51)
	if _, err := Migrate(b, a2, nil); err != nil {
		t.Fatalf("A → B → A′ above B's base: %v", err)
	}
	carried := make(map[keycrypt.KeyID]bool)
	for _, m := range a2.Members() {
		carried[a2.PathIDs(m, nil)[0]] = true
	}
	for _, m := range a2.Members() {
		for _, id := range a2.PathIDs(m, nil)[1:] {
			if carried[id] {
				t.Fatalf("member %d's path key %v shadows a carried individual key", m, id)
			}
		}
	}
}
