package wire

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// testEpochItems builds n deterministic rekey items and returns their
// concatenated encodings plus the decoded forms.
func testEpochItems(t testing.TB, n int) ([]byte, []keytree.Item) {
	t.Helper()
	material := make([]byte, keycrypt.KeySize)
	for i := range material {
		material[i] = byte(i ^ 0x5a)
	}
	indiv, err := keycrypt.NewKey(7, 1, material)
	if err != nil {
		t.Fatal(err)
	}
	wrapper, err := keycrypt.NewKey(8, 3, reverse(material))
	if err != nil {
		t.Fatal(err)
	}
	rng := keycrypt.NewDeterministicReader(99)
	var buf []byte
	items := make([]keytree.Item, 0, n)
	for i := 0; i < n; i++ {
		w, err := keycrypt.Wrap(indiv, wrapper, rng)
		if err != nil {
			t.Fatal(err)
		}
		it := keytree.Item{Kind: keytree.ChildWrap, Level: i % 5, Wrapped: w}
		buf, err = AppendRekeyItem(buf, it)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
	}
	return buf, items
}

func testSigner(t testing.TB) ed25519.PrivateKey {
	t.Helper()
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(0x11 * (i + 1))
	}
	return ed25519.NewKeyFromSeed(seed)
}

// TestItemTreeProofRoundTrip exercises the multiproof walk across tree
// sizes (including non-powers of two) and every subset shape from a single
// leaf to all leaves, checking ProofSize agrees with the emitted proof.
func TestItemTreeProofRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31} {
		buf, _ := testEpochItems(t, n)
		tree := NewItemTree(n, func(i int) []byte { return buf[i*RekeyItemSize : (i+1)*RekeyItemSize] })
		root := tree.Root()
		subsets := [][]uint32{{0}, {uint32(n - 1)}}
		all := make([]uint32, n)
		for i := range all {
			all[i] = uint32(i)
		}
		subsets = append(subsets, all)
		for trial := 0; trial < 8; trial++ {
			var idx []uint32
			for i := 0; i < n; i++ {
				if rnd.Intn(2) == 0 {
					idx = append(idx, uint32(i))
				}
			}
			if len(idx) > 0 {
				subsets = append(subsets, idx)
			}
		}
		for _, idx := range subsets {
			proof, count := tree.AppendProof(nil, idx)
			if len(proof) != count*HashSize {
				t.Fatalf("n=%d idx=%v: AppendProof returned %d bytes, count %d", n, idx, len(proof), count)
			}
			if got := tree.ProofSize(idx); got != len(proof) {
				t.Fatalf("n=%d idx=%v: ProofSize %d, proof %d bytes", n, idx, got, len(proof))
			}
			hashes := make([][]byte, len(idx))
			for i, v := range idx {
				hashes[i] = HashRekeyItem(buf[int(v)*RekeyItemSize : (int(v)+1)*RekeyItemSize])
			}
			if err := VerifyItemProof(n, idx, hashes, proof, root); err != nil {
				t.Fatalf("n=%d idx=%v: verify: %v", n, idx, err)
			}
			// A flipped leaf hash must not verify.
			tampered := append([][]byte(nil), hashes...)
			bad := append([]byte(nil), tampered[0]...)
			bad[0] ^= 1
			tampered[0] = bad
			if err := VerifyItemProof(n, idx, tampered, proof, root); err == nil {
				t.Fatalf("n=%d idx=%v: tampered leaf verified", n, idx)
			}
		}
	}
}

func TestItemTreeEmpty(t *testing.T) {
	tree := NewItemTree(0, nil)
	if root := tree.Root(); root != ([HashSize]byte{}) {
		t.Fatalf("empty tree root = %x, want zero", root)
	}
	if proof, n := tree.AppendProof(nil, nil); len(proof) != 0 || n != 0 {
		t.Fatalf("empty tree proof = %d bytes, %d hashes", len(proof), n)
	}
}

func TestSparseRekeyRoundTrip(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	const n = 11
	buf, items := testEpochItems(t, n)
	tree := NewItemTree(n, func(i int) []byte { return buf[i*RekeyItemSize : (i+1)*RekeyItemSize] })
	root := tree.Root()
	sig := SignSparse(priv, 42, n, root)

	idx := []uint32{1, 4, 5, 10}
	frame := EncodeSparseRekey(42, tree, root, sig, idx, buf)
	if want := SparseFrameSize(tree, idx); len(frame) != want {
		t.Fatalf("frame %d bytes, SparseFrameSize says %d", len(frame), want)
	}
	sr, err := DecodeSparseRekey(pub, frame)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 42 || sr.NLeaves != n || len(sr.Items) != len(idx) {
		t.Fatalf("decoded epoch=%d nLeaves=%d items=%d", sr.Epoch, sr.NLeaves, len(sr.Items))
	}
	for i, v := range sr.Indexes {
		if v != idx[i] {
			t.Fatalf("index %d = %d, want %d", i, v, idx[i])
		}
		want := items[idx[i]]
		got := sr.Items[i]
		if got.Kind != want.Kind || got.Level != want.Level || !bytes.Equal(got.Wrapped.Marshal(), want.Wrapped.Marshal()) {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestSparseRekeyHeartbeat(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	tree := NewItemTree(0, nil)
	root := tree.Root()
	sig := SignSparse(priv, 7, 0, root)
	frame := EncodeSparseRekey(7, tree, root, sig, nil, nil)
	sr, err := DecodeSparseRekey(pub, frame)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Epoch != 7 || len(sr.Items) != 0 {
		t.Fatalf("heartbeat decoded epoch=%d items=%d", sr.Epoch, len(sr.Items))
	}
}

// TestSparseRekeyTamper flips every byte position in a valid frame and
// requires each mutation to fail decoding — the frame must have no inert
// bytes an attacker could repurpose.
func TestSparseRekeyTamper(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	const n = 5
	buf, _ := testEpochItems(t, n)
	tree := NewItemTree(n, func(i int) []byte { return buf[i*RekeyItemSize : (i+1)*RekeyItemSize] })
	root := tree.Root()
	sig := SignSparse(priv, 3, n, root)
	frame := EncodeSparseRekey(3, tree, root, sig, []uint32{0, 3}, buf)
	for pos := 0; pos < len(frame); pos++ {
		mut := append([]byte(nil), frame...)
		mut[pos] ^= 0x40
		if _, err := DecodeSparseRekey(pub, mut); err == nil {
			t.Fatalf("flip at byte %d still decoded", pos)
		}
	}
	// Truncations must be structural errors, not panics.
	for cut := 0; cut < len(frame); cut += 7 {
		if _, err := DecodeSparseRekey(pub, frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := DecodeSparseRekey(pub[:16], frame); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("short public key: %v", err)
	}
}

func TestSparseIndex(t *testing.T) {
	items := []keytree.Item{
		{Receivers: []keytree.MemberID{1, 2, 3}},
		{Receivers: []keytree.MemberID{2}},
		{Receivers: []keytree.MemberID{1, 3}},
	}
	index := SparseIndex(items)
	want := map[keytree.MemberID][]uint32{
		1: {0, 2},
		2: {0, 1},
		3: {0, 2},
	}
	if len(index) != len(want) {
		t.Fatalf("index has %d members, want %d", len(index), len(want))
	}
	for m, w := range want {
		if !slices.Equal(index[m], w) {
			t.Fatalf("member %d: %v, want %v", m, index[m], w)
		}
	}
}

// synthPath is the KeyPath of a perfect 4-ary key tree over members 1..n,
// computed rather than built: member m's key at level l (0 = leaf) is
// l<<40 | (m-1)>>(2l), up to the root, which every member shares.
func synthPath(n int) KeyPath {
	height := 0
	for 1<<(2*height) < n {
		height++
	}
	return func(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
		if m < 1 || int(m) > n {
			return buf
		}
		for l := 0; l <= height; l++ {
			buf = append(buf, keycrypt.KeyID(uint64(l)<<40|uint64(m-1)>>(2*l)))
		}
		return buf
	}
}

// synthItems builds nItems items over members 1..n addressed the way a
// key-tree rekey is: mostly path-addressed wraps of a node's parent key
// under the node's key, at every level from leaves to the root, and one
// in eight a joiner-style item naming one member and handing it a key on
// its own path — which drops that member from the wraps of that key.
func synthItems(n, nItems int, rng *rand.Rand) []keytree.Item {
	path := synthPath(n)
	items := make([]keytree.Item, nItems)
	for i := range items {
		m := keytree.MemberID(1 + rng.Intn(n))
		keys := path(m, nil)
		l := rng.Intn(len(keys))
		w := &items[i].Wrapped
		if i%8 == 7 {
			items[i].Receivers = []keytree.MemberID{m}
			w.PayloadID, w.WrapperID = keys[l], 1<<62+keycrypt.KeyID(m)
			continue
		}
		w.WrapperID, w.PayloadID = keys[l], 1<<63
		if l+1 < len(keys) {
			w.PayloadID = keys[l+1]
		}
	}
	return items
}

// pathOracle applies the addressing rule by brute force, sharing no code
// with Build: for each audience member, the ascending indexes of the items
// naming it, and of the path-addressed items wrapped under a key in
// keys(m) whose payload no explicit item hands it.
func pathOracle(items []keytree.Item, audience []keytree.MemberID, keys func(keytree.MemberID) []keycrypt.KeyID) [][]uint32 {
	type delivery struct {
		m   keytree.MemberID
		key keycrypt.KeyID
	}
	named := make(map[delivery]bool)
	for _, it := range items {
		for _, m := range it.Receivers {
			named[delivery{m, it.Wrapped.PayloadID}] = true
		}
	}
	out := make([][]uint32, len(audience))
	for p, m := range audience {
		path := keys(m)
		for i, it := range items {
			if len(it.Receivers) > 0 {
				if slices.Contains(it.Receivers, m) {
					out[p] = append(out[p], uint32(i))
				}
			} else if slices.Contains(path, it.Wrapped.WrapperID) && !named[delivery{m, it.Wrapped.PayloadID}] {
				out[p] = append(out[p], uint32(i))
			}
		}
	}
	return out
}

// checkScoped asserts that x, built for audience, holds exactly what the
// brute-force oracle derives, position by position and by lookup, and that
// outsiders are not indexed.
func checkScoped(t *testing.T, x *ScopedIndex, items []keytree.Item, audience, outsiders []keytree.MemberID, keys func(keytree.MemberID) []keycrypt.KeyID) {
	t.Helper()
	oracle := pathOracle(items, audience, keys)
	for p, m := range audience {
		if got := x.At(p); !slices.Equal(got, oracle[p]) {
			t.Fatalf("member %d (position %d): %v, want %v", m, p, got, oracle[p])
		}
		got, ok := x.Lookup(m)
		if !ok || !slices.Equal(got, oracle[p]) {
			t.Fatalf("Lookup(%d) = %v, %v; want %v, true", m, got, ok, oracle[p])
		}
	}
	for _, m := range outsiders {
		if _, found := slices.BinarySearch(audience, m); found {
			continue
		}
		if got, ok := x.Lookup(m); ok {
			t.Fatalf("Lookup(%d) outside the audience = %v, true", m, got)
		}
	}
}

// TestSparseIndexInvariants holds the inversion to what the sparse frame
// format relies on: every member's indexes strictly ascend.
func TestSparseIndexInvariants(t *testing.T) {
	const n = 500
	all := make([]keytree.MemberID, n)
	for i := range all {
		all[i] = keytree.MemberID(i + 1)
	}
	items := synthItems(n, 300, rand.New(rand.NewSource(1)))
	index := SparseIndex(Addressed(items, all, synthPath(n)))
	if len(index) < n/2 {
		t.Fatalf("only %d of %d members are addressed", len(index), n)
	}
	for m, idx := range index {
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatalf("member %d: indexes %v do not strictly ascend", m, idx)
			}
		}
	}
}

func TestScopedIndex(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(3))
	items := synthItems(n, 400, rng)
	path := synthPath(n)
	keys := func(m keytree.MemberID) []keycrypt.KeyID { return path(m, nil) }
	var x ScopedIndex
	audiences := [][]keytree.MemberID{
		nil,
		{1},
		{2000},
		{7, 9, 5000, 6000}, // the last two hold no key
		{0, 1, 2},
	}
	for _, size := range []int{3, 64, 512, n} {
		a := make([]keytree.MemberID, 0, size)
		for _, v := range rng.Perm(n)[:size] {
			a = append(a, keytree.MemberID(v+1))
		}
		slices.Sort(a)
		audiences = append(audiences, a)
	}
	outsiders := []keytree.MemberID{1, 2, 500, 2000, 5000}
	for _, a := range audiences {
		x.Build(items, a, path) // one index rebuilt throughout: slabs are reused
		checkScoped(t, &x, items, a, outsiders, keys)
	}
	x.Build(nil, []keytree.MemberID{4, 8}, path)
	if idx, ok := x.Lookup(8); !ok || len(idx) != 0 {
		t.Fatalf("empty epoch: Lookup(8) = %v, %v; want empty, true", idx, ok)
	}
}

// TestScopedIndexAllocsIndependentOfGroupSize pins the seal's scaling
// claim: for a fixed audience and item count, rebuilding a warm index
// allocates nothing whether the group has a thousand members or a hundred
// thousand.
func TestScopedIndexAllocsIndependentOfGroupSize(t *testing.T) {
	for _, n := range []int{1_000, 100_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		items := synthItems(n, 2048, rng)
		audience := make([]keytree.MemberID, 0, 512)
		for _, v := range rng.Perm(n)[:512] {
			audience = append(audience, keytree.MemberID(v+1))
		}
		slices.Sort(audience)
		path := synthPath(n)
		var x ScopedIndex
		x.Build(items, audience, path)
		if allocs := testing.AllocsPerRun(10, func() { x.Build(items, audience, path) }); allocs > 0 {
			t.Fatalf("N=%d: warm Build allocs/op = %v, want 0", n, allocs)
		}
	}
}

// TestPathIndexMatchesReceiverOracle holds Build to the brute-force oracle
// over every scheme a key server hosts, planner off and on: seeded churn
// with joins, departures and S→L migrations, a scheduled rotation every few
// epochs, and a closing Migrate bridge into a fresh TT scheme. Every epoch
// is indexed for an empty audience, a singleton, the whole group, a random
// subset, still-connected leavers, and IDs the scheme never held.
func TestPathIndexMatchesReceiverOracle(t *testing.T) {
	configs := []struct {
		name  string
		build func(...core.Option) (core.Scheme, error)
	}{
		{"onetree", func(o ...core.Option) (core.Scheme, error) { return core.NewOneTree(o...) }},
		{"naive", func(o ...core.Option) (core.Scheme, error) { return core.NewNaive(o...) }},
		{"qt", func(o ...core.Option) (core.Scheme, error) { return core.NewTwoPartition(core.QT, 3, o...) }},
		{"tt", func(o ...core.Option) (core.Scheme, error) { return core.NewTwoPartition(core.TT, 3, o...) }},
		{"pt", func(o ...core.Option) (core.Scheme, error) { return core.NewTwoPartition(core.PT, 3, o...) }},
		{"loss-homogenized", func(o ...core.Option) (core.Scheme, error) {
			return core.NewLossHomogenized([]float64{0.01, 0.1}, o...)
		}},
		{"random-multitree", func(o ...core.Option) (core.Scheme, error) { return core.NewRandomMultiTree(2, o...) }},
	}
	rnd := func(seed uint64) core.Option { return core.WithRand(keycrypt.NewDeterministicReader(seed)) }
	var x ScopedIndex
	for ci, c := range configs {
		for _, planner := range []bool{false, true} {
			seed := uint64(900 + 2*ci)
			opts := []core.Option{rnd(seed)}
			if planner {
				seed++
				opts = []core.Option{rnd(seed), core.WithPlanner(keytree.PlannerConfig{})}
			}
			t.Run(fmt.Sprintf("%s/planner=%v", c.name, planner), func(t *testing.T) {
				sc, err := c.build(opts...)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(seed)))
				next := keytree.MemberID(1)
				pairs := 0
				check := func(sc core.Scheme, r *core.Rekey, leavers []keytree.MemberID) {
					t.Helper()
					items := r.AllItems()
					members := sc.Members()
					keys := func(m keytree.MemberID) []keycrypt.KeyID {
						held, err := sc.MemberKeys(m)
						if err != nil {
							return nil
						}
						ids := make([]keycrypt.KeyID, len(held))
						for i, k := range held {
							ids[i] = k.ID
						}
						return ids
					}
					var subset []keytree.MemberID
					for _, m := range members {
						if rng.Intn(3) == 0 {
							subset = append(subset, m)
						}
					}
					withLeavers := slices.Concat(leavers, members[:min(3, len(members))])
					slices.Sort(withLeavers)
					audiences := [][]keytree.MemberID{
						nil,
						{members[rng.Intn(len(members))]},
						members,
						subset,
						withLeavers,
						{0, next + 5, next + 9},
					}
					for _, a := range audiences {
						x.Build(items, a, sc.PathIDs)
						checkScoped(t, &x, items, a, leavers, keys)
						for p := range a {
							pairs += len(x.At(p))
						}
					}
				}
				for e := 0; e < 24; e++ {
					var b core.Batch
					members := sc.Members()
					joins := 1 + rng.Intn(6)
					if e == 0 {
						joins = 60
					}
					for i := 0; i < joins; i++ {
						meta := core.MemberMeta{LossRate: []float64{-1, 0.005, 0.05, 0.3}[rng.Intn(4)], LongLived: rng.Intn(2) == 0}
						b.Joins = append(b.Joins, core.Join{ID: next, Meta: meta})
						next++
					}
					for _, v := range rng.Perm(len(members))[:min(rng.Intn(6), len(members))] {
						b.Leaves = append(b.Leaves, members[v])
					}
					r, err := sc.ProcessBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					check(sc, r, b.Leaves)
					if e%6 == 5 {
						r, err := sc.(core.Rotator).Rotate()
						if err != nil {
							t.Fatal(err)
						}
						check(sc, r, nil)
					}
				}
				to, err := core.NewTwoPartition(core.TT, 3, rnd(seed+100), core.WithKeyIDBase(1<<50))
				if err != nil {
					t.Fatal(err)
				}
				r, err := core.Migrate(sc, to, nil, rnd(seed+200))
				if err != nil {
					t.Fatal(err)
				}
				check(to, r, nil)
				if pairs == 0 {
					t.Fatal("no audience member was addressed any item")
				}
			})
		}
	}
}

func TestRekeyDigestRoundTrip(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	var root [HashSize]byte
	for i := range root {
		root[i] = byte(i)
	}
	d := RekeyDigest{
		Epoch: 12, NLeaves: 40, Root: root,
		Sig:       SignSparse(priv, 12, 40, root),
		ShardSize: 1100,
		Indexes:   []uint32{0, 7, 39},
		Blocks:    []DigestBlock{{Block: 0, K: 8, Shards: 10}, {Block: 1, K: 4, Shards: 6}},
	}
	enc := d.Encode()
	got, err := DecodeRekeyDigest(pub, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != d.Epoch || got.NLeaves != d.NLeaves || got.Root != d.Root || got.ShardSize != d.ShardSize {
		t.Fatalf("digest header mismatch: %+v", got)
	}
	if len(got.Indexes) != 3 || got.Indexes[2] != 39 || len(got.Blocks) != 2 || got.Blocks[1].Shards != 6 {
		t.Fatalf("digest lists mismatch: %+v", got)
	}
	// A digest signed for another epoch must not verify.
	bad := d
	bad.Epoch = 13
	if _, err := DecodeRekeyDigest(pub, bad.Encode()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("cross-epoch digest: %v", err)
	}
	// Descending indexes are structural damage.
	swapped := d
	swapped.Indexes = []uint32{7, 0}
	if _, err := DecodeRekeyDigest(pub, swapped.Encode()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("descending digest indexes: %v", err)
	}
}

func TestRekeyPullRoundTrip(t *testing.T) {
	enc := EncodeRekeyPull(77)
	epoch, err := DecodeRekeyPull(enc)
	if err != nil || epoch != 77 {
		t.Fatalf("pull round trip: epoch=%d err=%v", epoch, err)
	}
	if _, err := DecodeRekeyPull(enc[:5]); err == nil {
		t.Fatal("short pull decoded")
	}
}

// TestCapsNegotiationRoundTrip locks the two join encodings: a zero-caps
// request is the 9-byte layout, a caps-bearing one round-trips the flags
// in a tenth byte (accepted, not read, by the server).
func TestCapsNegotiationRoundTrip(t *testing.T) {
	legacy := JoinRequest{LossRate: 0.5, LongLived: true}
	if got := len(legacy.Encode()); got != 9 {
		t.Fatalf("legacy join request is %d bytes, want 9", got)
	}
	caps := JoinRequest{LossRate: 0.5, LongLived: true, Caps: CapSparse | CapDatagram}
	enc := caps.Encode()
	if len(enc) != 10 {
		t.Fatalf("caps join request is %d bytes, want 10", len(enc))
	}
	got, err := DecodeJoinRequest(enc)
	if err != nil || got.Caps != CapSparse|CapDatagram || !got.LongLived {
		t.Fatalf("caps join round trip: %+v err=%v", got, err)
	}
	back, err := DecodeJoinRequest(legacy.Encode())
	if err != nil || back.Caps != 0 {
		t.Fatalf("legacy join round trip: %+v err=%v", back, err)
	}
}

// TestSparseFrameAtMaxIndexesFits: the sparse frame carrying every item of
// the largest epoch a server may seal — what a resumer is sent — including
// its proof count and padding proof hashes, fits a frame.
func TestSparseFrameAtMaxIndexesFits(t *testing.T) {
	item := make([]byte, RekeyItemSize)
	tree := NewItemTree(MaxSparseIndexes, func(int) []byte { return item })
	all := make([]uint32, MaxSparseIndexes)
	for i := range all {
		all[i] = uint32(i)
	}
	size := SparseFrameSize(tree, all)
	if tree.ProofSize(all) == 0 {
		t.Fatal("an all-items frame over a padded tree carries no proof; the test no longer probes the bound")
	}
	if size > MaxFrameSize {
		t.Fatalf("all-items frame at MaxSparseIndexes=%d is %d bytes, %d over MaxFrameSize",
			MaxSparseIndexes, size, size-MaxFrameSize)
	}
}

// FuzzDecodeSparseRekey hunts for panics and out-of-bounds slicing in the
// sparse frame parser; any mutation of a valid frame must fail cleanly.
func FuzzDecodeSparseRekey(f *testing.F) {
	priv := testSigner(f)
	pub := priv.Public().(ed25519.PublicKey)
	const n = 6
	buf, _ := testEpochItems(f, n)
	tree := NewItemTree(n, func(i int) []byte { return buf[i*RekeyItemSize : (i+1)*RekeyItemSize] })
	root := tree.Root()
	sig := SignSparse(priv, 5, n, root)
	f.Add(EncodeSparseRekey(5, tree, root, sig, []uint32{0, 2, 5}, buf))
	f.Add(EncodeSparseRekey(5, tree, root, sig, nil, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := DecodeSparseRekey(pub, data)
		if err != nil {
			return
		}
		if len(sr.Items) != len(sr.Indexes) {
			t.Fatalf("accepted frame with %d items, %d indexes", len(sr.Items), len(sr.Indexes))
		}
	})
}
