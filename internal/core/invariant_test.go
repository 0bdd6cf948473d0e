package core

// Cross-scheme secrecy invariants, driven by seeded random churn traces
// against real client-side key stores (member.Member):
//
//   - agreement: after every batch, every current member holds the
//     scheme's group key and its full MemberKeys set;
//   - forward secrecy: a departed member, fed every subsequent rekey
//     payload forever, decrypts nothing and never recovers a later
//     group key;
//   - backward secrecy: a joiner's store never contains the group key
//     of the epoch preceding its admission.
//
// The same trace machinery also exercises core.Migrate: after churn,
// the whole group moves to a destination scheme with a disjoint key-ID
// base, and the invariants must survive the migration bridge.

import (
	"math/rand"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
)

// plannerOpt turns the batch placement planner on, so churn traces run
// anchored placements against the secrecy oracles, not just greedy ones.
func plannerOpt() Option {
	return WithPlanner(keytree.PlannerConfig{})
}

// secrecySchemes names one constructor per scheme family under test —
// all four of the paper's constructions, with every TwoPartition mode —
// plus a planner-enabled variant of every tree-backed scheme.
var secrecySchemes = []struct {
	name    string
	planner bool
	build   func(seed uint64) (Scheme, error)
}{
	{"onetree", false, func(seed uint64) (Scheme, error) { return NewOneTree(rnd(seed)) }},
	{"naive", false, func(seed uint64) (Scheme, error) { return NewNaive(rnd(seed)) }},
	{"twopartition-qt", false, func(seed uint64) (Scheme, error) { return NewTwoPartition(QT, 3, rnd(seed)) }},
	{"twopartition-tt", false, func(seed uint64) (Scheme, error) { return NewTwoPartition(TT, 3, rnd(seed)) }},
	{"twopartition-pt", false, func(seed uint64) (Scheme, error) { return NewTwoPartition(PT, 3, rnd(seed)) }},
	{"loss-homogenized", false, func(seed uint64) (Scheme, error) {
		return NewLossHomogenized([]float64{0.01, 0.1}, rnd(seed))
	}},
	{"onetree-planner", true, func(seed uint64) (Scheme, error) { return NewOneTree(rnd(seed), plannerOpt()) }},
	{"twopartition-qt-planner", true, func(seed uint64) (Scheme, error) {
		return NewTwoPartition(QT, 3, rnd(seed), plannerOpt())
	}},
	{"twopartition-tt-planner", true, func(seed uint64) (Scheme, error) {
		return NewTwoPartition(TT, 3, rnd(seed), plannerOpt())
	}},
	{"twopartition-pt-planner", true, func(seed uint64) (Scheme, error) {
		return NewTwoPartition(PT, 3, rnd(seed), plannerOpt())
	}},
	{"loss-homogenized-planner", true, func(seed uint64) (Scheme, error) {
		return NewLossHomogenized([]float64{0.01, 0.1}, rnd(seed), plannerOpt())
	}},
}

// secrecyTracker extends the harness contract across epochs: departed
// members are never forgotten — every later payload is replayed against
// their frozen stores to prove it stays opaque.
type secrecyTracker struct {
	t        *testing.T
	s        Scheme
	current  map[keytree.MemberID]*member.Member
	departed map[keytree.MemberID]*member.Member
}

func newSecrecyTracker(t *testing.T, s Scheme) *secrecyTracker {
	return &secrecyTracker{
		t:        t,
		s:        s,
		current:  make(map[keytree.MemberID]*member.Member),
		departed: make(map[keytree.MemberID]*member.Member),
	}
}

// process applies one batch and checks all three invariants. prevKey is
// the group key before the batch (zero Key when the group was empty).
func (st *secrecyTracker) process(b Batch) {
	st.t.Helper()
	var prevKey keycrypt.Key
	hadPrev := st.s.Size() > 0
	if hadPrev {
		var err error
		if prevKey, err = st.s.GroupKey(); err != nil {
			st.t.Fatalf("%s: GroupKey before batch: %v", st.s.Name(), err)
		}
	}

	r, err := st.s.ProcessBatch(b)
	if err != nil {
		st.t.Fatalf("%s: ProcessBatch: %v", st.s.Name(), err)
	}
	st.absorb(r, b.Joins, b.Leaves, prevKey, hadPrev)
}

// absorb distributes one rekey payload to every store — current and
// departed — and asserts the invariants. Factored out so the migration
// test can feed a Migrate rekey through the same checks.
func (st *secrecyTracker) absorb(r *Rekey, joined []Join, left []keytree.MemberID, prevKey keycrypt.Key, hadPrev bool) {
	st.t.Helper()
	items := r.AllItems()

	// Leavers freeze: their store moves to the departed set as-is.
	for _, m := range left {
		c := st.current[m]
		if c == nil {
			st.t.Fatalf("tracker out of sync: no client for leaver %d", m)
		}
		delete(st.current, m)
		st.departed[m] = c
	}

	// Joiners bootstrap from the welcome key alone.
	for _, j := range joined {
		wk, ok := r.Welcome[j.ID]
		if !ok {
			st.t.Fatalf("%s: no welcome key for joiner %d", st.s.Name(), j.ID)
		}
		st.current[j.ID] = member.New(j.ID, wk)
	}

	// Agreement: everyone applies the payload and reaches the full set.
	for id, c := range st.current {
		c.Apply(items)
		want, err := st.s.MemberKeys(id)
		if err != nil {
			st.t.Fatalf("%s: MemberKeys(%d): %v", st.s.Name(), id, err)
		}
		for _, k := range want {
			if !c.Has(k) {
				st.t.Fatalf("%s: member %d missing key %v at epoch %d", st.s.Name(), id, k.ID, r.Epoch)
			}
		}
	}

	// Backward secrecy: a fresh joiner must not hold the pre-batch group
	// key (same key ID, earlier version — Has matches exact versions).
	if hadPrev {
		for _, j := range joined {
			if st.current[j.ID].Has(prevKey) {
				st.t.Fatalf("%s: joiner %d holds the previous epoch's group key", st.s.Name(), j.ID)
			}
		}
	}

	// Forward secrecy: every member that ever departed gets the payload
	// too, decrypts nothing, and stays locked out of the group key.
	if st.s.Size() == 0 {
		return
	}
	dek, err := st.s.GroupKey()
	if err != nil {
		st.t.Fatalf("%s: GroupKey: %v", st.s.Name(), err)
	}
	for id, c := range st.departed {
		if learned := c.Apply(items); learned != 0 {
			st.t.Fatalf("%s: departed member %d decrypted %d items at epoch %d", st.s.Name(), id, learned, r.Epoch)
		}
		if c.Has(dek) {
			st.t.Fatalf("%s: departed member %d recovered the group key at epoch %d", st.s.Name(), id, r.Epoch)
		}
	}
}

// randomTrace drives batches of seeded random churn through the tracker
// and returns the set of member IDs still present. Roughly one batch in
// six is empty, which is what advances TwoPartition S-migrations.
func randomTrace(t *testing.T, st *secrecyTracker, rng *rand.Rand, batches int) {
	t.Helper()
	nextID := 1
	newJoin := func() Join {
		j := Join{ID: keytree.MemberID(nextID), Meta: MemberMeta{
			LossRate:  []float64{-1, 0.005, 0.05, 0.5}[rng.Intn(4)],
			LongLived: rng.Intn(2) == 0,
		}}
		nextID++
		return j
	}

	// Seed the group so early leaves have someone to remove.
	first := Batch{}
	for i := 0; i < 8; i++ {
		first.Joins = append(first.Joins, newJoin())
	}
	st.process(first)

	for i := 0; i < batches; i++ {
		if rng.Intn(6) == 0 {
			st.process(Batch{}) // empty batch: pure migration/no-op epoch
			continue
		}
		b := Batch{}
		for n := rng.Intn(4); n > 0; n-- {
			b.Joins = append(b.Joins, newJoin())
		}
		// Leave up to 2 random current members, but never drain the group.
		ids := st.s.Members()
		for n := rng.Intn(3); n > 0 && len(ids) > 2; n-- {
			pick := rng.Intn(len(ids))
			b.Leaves = append(b.Leaves, ids[pick])
			ids = append(ids[:pick], ids[pick+1:]...)
		}
		st.process(b)
	}
}

// TestSecrecyInvariants runs the churn trace against every scheme.
func TestSecrecyInvariants(t *testing.T) {
	for _, tc := range secrecySchemes {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(77)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			st := newSecrecyTracker(t, s)
			randomTrace(t, st, rand.New(rand.NewSource(77)), 30)
			if len(st.departed) == 0 {
				t.Fatal("trace produced no departures; forward secrecy untested")
			}
			if s.Size() == 0 {
				t.Fatal("trace drained the group; agreement untested")
			}
			if tc.planner {
				ps := s.Stats().Planner
				if !ps.Enabled {
					t.Fatal("planner variant reports planner disabled")
				}
				if ps.PlannedBatches+ps.GreedyFallbacks == 0 {
					t.Fatal("planner variant never evaluated a batch; secrecy coverage is vacuous")
				}
			}
		})
	}
}

// TestSecrecyInvariantsAcrossMigration churns each scheme, migrates the
// whole group to a OneTree with a disjoint key-ID base, and requires the
// invariants to hold through the bridge and through post-migration churn:
// everyone follows without a registration round-trip, departed members
// stay locked out of the destination's key hierarchy too.
func TestSecrecyInvariantsAcrossMigration(t *testing.T) {
	for _, tc := range secrecySchemes {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(901)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			st := newSecrecyTracker(t, s)
			randomTrace(t, st, rand.New(rand.NewSource(901)), 12)

			prevKey, err := s.GroupKey()
			if err != nil {
				t.Fatalf("GroupKey before migration: %v", err)
			}
			dstOpts := []Option{rnd(902), WithKeyIDBase(keycrypt.KeyID(9) << 40)}
			if tc.planner {
				// Planner rows migrate onto a planner-enabled destination:
				// the bridge and the post-migration churn below must honor
				// the invariants with planning active on both sides.
				dstOpts = append(dstOpts, plannerOpt())
			}
			dst, err := NewOneTree(dstOpts...)
			if err != nil {
				t.Fatalf("NewOneTree: %v", err)
			}
			r, err := Migrate(s, dst, nil, rnd(903))
			if err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			if r.Welcome != nil {
				t.Fatal("migration rekey still exposes welcome keys")
			}

			// The bridge is in-band: no joins, no leaves, just the payload.
			st.s = dst
			st.absorb(r, nil, nil, prevKey, true)

			// The destination keeps honoring the invariants under churn.
			randomTrace2 := rand.New(rand.NewSource(904))
			ids := dst.Members()
			st.process(Batch{
				Joins:  joins(MemberMeta{}, 9001, 9002),
				Leaves: []keytree.MemberID{ids[randomTrace2.Intn(len(ids))]},
			})
			st.process(Batch{})
		})
	}
}

// TestMemberStoresDisjointAcrossSchemes is the in-core isolation oracle:
// two schemes built with disjoint key-ID bases (as the multi-group server
// does per group) must emit payloads that are mutually opaque — a member
// of one group decrypts nothing from the other group's rekeys.
func TestMemberStoresDisjointAcrossSchemes(t *testing.T) {
	a, err := NewOneTree(rnd(10), WithKeyIDBase(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTwoPartition(TT, 3, rnd(11), WithKeyIDBase(keycrypt.KeyID(1)<<40))
	if err != nil {
		t.Fatal(err)
	}
	sa := newSecrecyTracker(t, a)
	sb := newSecrecyTracker(t, b)
	randomTrace(t, sa, rand.New(rand.NewSource(12)), 10)
	randomTrace(t, sb, rand.New(rand.NewSource(13)), 10)

	rb, err := b.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 5000)})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range sa.current {
		if learned := c.Apply(rb.AllItems()); learned != 0 {
			t.Fatalf("group-A member %d decrypted %d items of group B's rekey", id, learned)
		}
		if c.Has(gb) {
			t.Fatalf("group-A member %d holds group B's key", id)
		}
	}
	ra, err := a.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 5000)}) // same member ID, different group
	if err != nil {
		t.Fatal(err)
	}
	ga, err := a.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range sb.current {
		if learned := c.Apply(ra.AllItems()); learned != 0 {
			t.Fatalf("group-B member %d decrypted %d items of group A's rekey", id, learned)
		}
		if c.Has(ga) {
			t.Fatalf("group-B member %d holds group A's key", id)
		}
	}
}
