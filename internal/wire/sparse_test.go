package wire

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"math/rand"
	"slices"
	"testing"

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

// synthItems builds nItems items over members 1..n the way a key tree
// addresses them: item i reaches a contiguous, ascending run of members
// whose length cycles from the whole group down to one.
func synthItems(n, nItems int, rng *rand.Rand) []keytree.Item {
	all := make([]keytree.MemberID, n)
	for i := range all {
		all[i] = keytree.MemberID(i + 1)
	}
	items := make([]keytree.Item, nItems)
	for i := range items {
		span := n >> (i % 12)
		if span < 1 {
			span = 1
		}
		lo := rng.Intn(n - span + 1)
		items[i].Receivers = all[lo : lo+span]
	}
	return items
}

// checkScoped asserts that x, built for audience, is SparseIndex
// restricted to that audience, position by position and by lookup.
func checkScoped(t *testing.T, x *ScopedIndex, items []keytree.Item, audience []keytree.MemberID) {
	t.Helper()
	oracle := SparseIndex(items)
	for p, m := range audience {
		if got := x.At(p); !slices.Equal(got, oracle[m]) {
			t.Fatalf("member %d (position %d): %v, want %v", m, p, got, oracle[m])
		}
		got, ok := x.Lookup(m)
		if !ok || !slices.Equal(got, oracle[m]) {
			t.Fatalf("Lookup(%d) = %v, %v; want %v, true", m, got, ok, oracle[m])
		}
	}
	for m := range oracle {
		if _, found := slices.BinarySearch(audience, m); found {
			continue
		}
		if got, ok := x.Lookup(m); ok {
			t.Fatalf("Lookup(%d) outside the audience = %v, true", m, got)
		}
	}
}

// TestSparseIndexInvariants holds the oracle to what Build and the sparse
// frame format rely on: every member's indexes strictly ascend.
func TestSparseIndexInvariants(t *testing.T) {
	items := synthItems(500, 300, rand.New(rand.NewSource(1)))
	for m, idx := range SparseIndex(items) {
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatalf("member %d: indexes %v do not strictly ascend", m, idx)
			}
		}
	}
}

func TestScopedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := synthItems(2000, 400, rng)
	var x ScopedIndex
	audiences := [][]keytree.MemberID{
		nil,
		{1},
		{2000},
		{7, 9, 5000, 6000}, // the last two are in no receiver list
		{0, 1, 2},
	}
	for _, n := range []int{3, 64, 512, 2000} {
		a := make([]keytree.MemberID, 0, n)
		for _, v := range rng.Perm(2000)[:n] {
			a = append(a, keytree.MemberID(v+1))
		}
		slices.Sort(a)
		audiences = append(audiences, a)
	}
	for _, a := range audiences {
		x.Build(items, a) // one index rebuilt throughout: slabs are reused
		checkScoped(t, &x, items, a)
	}
	x.Build(nil, []keytree.MemberID{4, 8})
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
		var x ScopedIndex
		x.Build(items, audience)
		if allocs := testing.AllocsPerRun(10, func() { x.Build(items, audience) }); allocs > 0 {
			t.Fatalf("N=%d: warm Build allocs/op = %v, want 0", n, allocs)
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

// TestCapsNegotiationRoundTrip locks the dual encodings: a zero-caps
// request stays byte-identical to the legacy layout (old servers keep
// working), a caps-bearing one round-trips the flags.
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

	proof := make([]byte, keycrypt.SealedSize(8))
	for i := range proof {
		proof[i] = byte(i)
	}
	legacyRes := ResumeRequest{Member: 4, Proof: proof}
	rr, err := DecodeResumeRequest(legacyRes.Encode())
	if err != nil || rr.Caps != 0 || !bytes.Equal(rr.Proof, proof) {
		t.Fatalf("legacy resume round trip: caps=%d err=%v", rr.Caps, err)
	}
	capsRes := ResumeRequest{Member: 4, Proof: proof, Caps: CapSparse}
	rr2, err := DecodeResumeRequest(capsRes.Encode())
	if err != nil || rr2.Caps != CapSparse || !bytes.Equal(rr2.Proof, proof) || rr2.Member != 4 {
		t.Fatalf("caps resume round trip: caps=%d err=%v", rr2.Caps, err)
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
