package server

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// buildEpochBuffer processes a churn batch on a fresh scheme and seals the
// resulting rekey for an audience of every member, returning everything
// the assertions need.
func buildEpochBuffer(t *testing.T, seed uint64) (*epochBuffer, core.Scheme, *core.Rekey, ed25519.PrivateKey) {
	t.Helper()
	sc := newScheme(t, seed)
	var b core.Batch
	for i := 1; i <= 48; i++ {
		b.Joins = append(b.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: 0.01}})
	}
	if _, err := sc.ProcessBatch(b); err != nil {
		t.Fatal(err)
	}
	rekey, err := sc.ProcessBatch(core.Batch{Leaves: []keytree.MemberID{5, 17}})
	if err != nil {
		t.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(seed + 1))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := newEpochBuffer(priv, rekey, sc.Members(), sc.PathIDs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eb.release)
	return eb, sc, rekey, priv
}

// TestEpochBufferSparseFrames checks that every member's assembled sparse
// frame decodes, verifies, and carries exactly the items addressed to it —
// and that sparseSize predicted the frame size.
func TestEpochBufferSparseFrames(t *testing.T) {
	eb, sc, rekey, priv := buildEpochBuffer(t, 50)
	pub := priv.Public().(ed25519.PublicKey)
	items := rekey.AllItems()
	if eb.nItems != len(items) {
		t.Fatalf("nItems=%d, want %d", eb.nItems, len(items))
	}
	want := wire.SparseIndex(wire.Addressed(items, sc.Members(), sc.PathIDs))
	covered := 0
	for p, m := range sc.Members() {
		got, idx := eb.index.At(p), want[m]
		if !slices.Equal(got, idx) {
			t.Fatalf("member %d: indexes %v, want %v", m, got, idx)
		}
		if len(idx) == 0 {
			continue
		}
		frame := eb.appendSparseFrame(nil, got)
		if n := eb.sparseSize(got); n != len(frame) {
			t.Fatalf("member %d: sparseSize=%d, frame is %d bytes", m, n, len(frame))
		}
		sr, err := wire.DecodeSparseRekey(pub, frame)
		if err != nil {
			t.Fatalf("member %d: DecodeSparseRekey: %v", m, err)
		}
		if sr.Epoch != rekey.Epoch || len(sr.Items) != len(idx) {
			t.Fatalf("member %d: decoded epoch=%d items=%d, want epoch=%d items=%d",
				m, sr.Epoch, len(sr.Items), rekey.Epoch, len(idx))
		}
		for i, v := range sr.Indexes {
			a, b := sr.Items[i].Wrapped.Marshal(), items[v].Wrapped.Marshal()
			if !bytes.Equal(a, b) {
				t.Fatalf("member %d: item %d differs from source item %d", m, i, v)
			}
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("rekey addressed nobody")
	}
	// Every item of the epoch fits one frame, as any subset of it must.
	every := make([]uint32, eb.nItems)
	for i := range every {
		every[i] = uint32(i)
	}
	all := eb.appendSparseFrame(nil, every)
	sr, err := wire.DecodeSparseRekey(pub, all)
	if err != nil {
		t.Fatalf("all-items frame: %v", err)
	}
	if sr.Epoch != rekey.Epoch || len(sr.Items) != len(items) || eb.sparseSize(every) != len(all) {
		t.Fatalf("all-items frame: epoch=%d items=%d size=%d, want %d/%d/%d",
			sr.Epoch, len(sr.Items), len(all), rekey.Epoch, len(items), eb.sparseSize(every))
	}
}

// TestEpochBufferRejectsUnsendableSeal: an epoch of more than
// MaxSparseIndexes items fails at seal time (RekeyNow), never at write time.
func TestEpochBufferRejectsUnsendableSeal(t *testing.T) {
	big := &core.Rekey{Epoch: 1, Streams: []core.Stream{{Items: make([]keytree.Item, wire.MaxSparseIndexes+1)}}}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(54))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newEpochBuffer(priv, big, nil, nil); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("sealing %d items: err=%v, want ErrFrameTooLarge", wire.MaxSparseIndexes+1, err)
	}
}

// TestEpochBufferItemRanges checks that vectored ranges coalesce runs of
// consecutive indexes and reproduce exactly the appendSparseFrame item
// bytes.
func TestEpochBufferItemRanges(t *testing.T) {
	eb, _, _, _ := buildEpochBuffer(t, 51)
	if eb.nItems < 8 {
		t.Skipf("epoch too small (%d items)", eb.nItems)
	}
	idx := []uint32{0, 1, 2, 4, 6, 7}
	ranges := eb.itemRanges(nil, idx)
	if len(ranges) != 3 {
		t.Fatalf("%d ranges for %v, want 3 (runs coalesce)", len(ranges), idx)
	}
	var flat []byte
	for _, r := range ranges {
		flat = append(flat, r...)
	}
	var want []byte
	for _, v := range idx {
		want = append(want, eb.item(int(v))...)
	}
	if !bytes.Equal(flat, want) {
		t.Fatal("coalesced ranges do not reproduce the item bytes")
	}
}

// TestEpochBufferRefcount exercises the retain/release protocol: the item
// buffer survives until the last reference and is recycled after it.
func TestEpochBufferRefcount(t *testing.T) {
	sc := newScheme(t, 52)
	var b core.Batch
	for i := 1; i <= 8; i++ {
		b.Joins = append(b.Joins, core.Join{ID: keytree.MemberID(i), Meta: core.MemberMeta{LossRate: -1}})
	}
	rekey, err := sc.ProcessBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(53))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := newEpochBuffer(priv, rekey, sc.Members(), sc.PathIDs)
	if err != nil {
		t.Fatal(err)
	}
	eb.retain()
	eb.release()
	if eb.itemBuf == nil || eb.index == nil {
		t.Fatal("item buffer or index freed while a reference remained")
	}
	eb.release()
	if eb.itemBuf != nil || eb.index != nil {
		t.Fatal("item buffer and index not recycled after the last release")
	}
}

// TestScopedSealMatchesWholeGroupIndex is the byte-identity proof for the
// audience-scoped seal. Seeded churn runs through the paper's four schemes
// (planner on for TT); every epoch is sealed for random connected subsets
// — none, one, the joiners only, leavers included, IDs the scheme never
// held — and for each connected member the scoped index must equal its
// entry in the whole-group index (every item's receivers derived for every
// member, inverted by wire.SparseIndex), and the member's sparse frame must
// equal, byte for byte, the frame built from that entry through
// wire.EncodeSparseRekey. wire's TestPathIndexMatchesReceiverOracle holds
// the addressing itself to a brute-force oracle.
func TestScopedSealMatchesWholeGroupIndex(t *testing.T) {
	rnd := func(seed uint64) core.Option { return core.WithRand(keycrypt.NewDeterministicReader(seed)) }
	schemes := []struct {
		name string
		new  func(seed uint64) (core.Scheme, error)
	}{
		{"onetree", func(seed uint64) (core.Scheme, error) { return core.NewOneTree(rnd(seed)) }},
		{"qt", func(seed uint64) (core.Scheme, error) { return core.NewTwoPartition(core.QT, 3, rnd(seed)) }},
		{"tt-planner", func(seed uint64) (core.Scheme, error) {
			return core.NewTwoPartition(core.TT, 3, rnd(seed), core.WithPlanner(keytree.PlannerConfig{}))
		}},
		{"pt", func(seed uint64) (core.Scheme, error) { return core.NewTwoPartition(core.PT, 3, rnd(seed)) }},
	}
	for si, tc := range schemes {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(700 + si)
			sc, err := tc.new(seed)
			if err != nil {
				t.Fatal(err)
			}
			_, priv, err := ed25519.GenerateKey(keycrypt.NewDeterministicReader(seed + 50))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(seed, 1))
			next := keytree.MemberID(1)
			for epoch := 0; epoch < 30; epoch++ {
				var b core.Batch
				members := sc.Members()
				joins := 1 + rng.IntN(6)
				if epoch == 0 {
					joins = 60
				}
				for i := 0; i < joins; i++ {
					b.Joins = append(b.Joins, core.Join{ID: next, Meta: core.MemberMeta{
						LossRate: 0.01, LongLived: rng.IntN(2) == 0}})
					next++
				}
				for _, v := range rng.Perm(len(members))[:min(rng.IntN(5), len(members))] {
					b.Leaves = append(b.Leaves, members[v])
				}
				rekey, err := sc.ProcessBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				items := rekey.AllItems()
				oracle := wire.SparseIndex(wire.Addressed(items, sc.Members(), sc.PathIDs))

				// Everyone a server could have connected at seal time: the
				// post-batch members and this batch's leavers.
				pool := slices.Concat(sc.Members(), b.Leaves)
				var joiners []keytree.MemberID
				for _, j := range b.Joins {
					joiners = append(joiners, j.ID)
				}
				audiences := [][]keytree.MemberID{
					nil,
					{pool[rng.IntN(len(pool))]},
					joiners,
					slices.Concat([]keytree.MemberID{0}, b.Leaves, []keytree.MemberID{next + 7, next + 9}),
					pool,
				}
				for i := 0; i < 3; i++ {
					var a []keytree.MemberID
					for _, m := range pool {
						if rng.IntN(3) == 0 {
							a = append(a, m)
						}
					}
					audiences = append(audiences, a)
				}
				for _, audience := range audiences {
					audience = slices.Clone(audience)
					slices.Sort(audience)
					eb, err := newEpochBuffer(priv, rekey, audience, sc.PathIDs)
					if err != nil {
						t.Fatal(err)
					}
					for p, m := range audience {
						idx := eb.index.At(p)
						if !slices.Equal(idx, oracle[m]) {
							t.Fatalf("epoch %d member %d: scoped indexes %v, oracle %v", rekey.Epoch, m, idx, oracle[m])
						}
						got := eb.appendSparseFrame(nil, idx)
						want := wire.EncodeSparseRekey(eb.epoch, eb.tree, eb.root, eb.rootSig, oracle[m], eb.itemBuf)
						if !bytes.Equal(got, want) {
							t.Fatalf("epoch %d member %d: sparse frame differs from the whole-group construction", rekey.Epoch, m)
						}
					}
					eb.release()
				}
			}
		})
	}
}
