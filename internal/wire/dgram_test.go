package wire

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"groupkey/internal/keycrypt"
)

const goldenDgramPath = "testdata/golden_dgrams.txt"

// goldenDgrams builds one deterministic packet per datagram type, each
// shard type as a one-shard epoch.
func goldenDgrams(t *testing.T) map[DgramType][]byte {
	t.Helper()
	priv := testSigner(t)
	itemBuf, _ := testEpochItems(t, 2)
	var shard []byte
	shard = binaryAppendUint16(shard, 2)
	shard = AppendShardEntry(shard, 0, itemBuf[:RekeyItemSize])
	shard = AppendShardEntry(shard, 1, itemBuf[RekeyItemSize:])

	material := make([]byte, keycrypt.KeySize)
	for i := range material {
		material[i] = byte(i ^ 0x5a)
	}
	leaf, err := keycrypt.NewKey(7, 1, material)
	if err != nil {
		t.Fatal(err)
	}
	rng := keycrypt.NewDeterministicReader(7)
	hello, err := keycrypt.Seal(leaf, []byte(HelloBody), rng)
	if err != nil {
		t.Fatal(err)
	}
	nack, err := keycrypt.Seal(leaf, NackBody{
		Epoch: 9, LossPermille: 50,
		Blocks: []NackBlock{{Block: 0, Have: 3}, {Block: 2, Have: 0}},
	}.Encode(), rng)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([]byte, 32)
	for i := range parity {
		parity[i] = byte(0xc0 + i)
	}
	return map[DgramType][]byte{
		DgramKeys:   EncodeShardDgram(priv, DgramKeys, 0x01020304, 9, 1, 0, 4, shard),
		DgramParity: EncodeShardDgram(priv, DgramParity, 0x01020304, 9, 1, 5, 4, parity),
		DgramHello:  EncodeMemberDgram(DgramHello, 0x01020304, 9, 31, hello),
		DgramNack:   EncodeMemberDgram(DgramNack, 0x01020304, 9, 31, nack),
	}
}

func binaryAppendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

// goldenEpochDgrams builds a deterministic three-packet epoch — two source
// shards and one parity shard — whose tree pads its fourth leaf, so the
// fixtures pin the path encoding, padding hash included.
func goldenEpochDgrams(t *testing.T) [][]byte {
	t.Helper()
	itemBuf, _ := testEpochItems(t, 3)
	var first, second []byte
	first = binaryAppendUint16(first, 2)
	first = AppendShardEntry(first, 0, itemBuf[:RekeyItemSize])
	first = AppendShardEntry(first, 1, itemBuf[RekeyItemSize:2*RekeyItemSize])
	second = binaryAppendUint16(second, 1)
	second = AppendShardEntry(second, 2, itemBuf[2*RekeyItemSize:])
	parity := make([]byte, len(first))
	for i := range parity {
		parity[i] = byte(0x30 + i)
	}
	return EncodeEpochDgrams(testSigner(t), 0x01020304, 9, []EpochShard{
		{Type: DgramKeys, Block: 0, Shard: 0, K: 2, Payload: first},
		{Type: DgramKeys, Block: 0, Shard: 1, K: 2, Payload: second},
		{Type: DgramParity, Block: 0, Shard: 2, K: 2, Payload: parity},
	})
}

// TestGoldenDgramVectors locks the datagram encodings to committed hex
// fixtures, mirroring the TCP frame goldens: one packet per type, then an
// epoch of three shard packets labelled "epoch/<type>". Regenerate with
// `go test ./internal/wire -run GoldenDgram -update`.
func TestGoldenDgramVectors(t *testing.T) {
	pkts := goldenDgrams(t)
	var lines []string
	for dt := DgramKeys; dt <= DgramNack; dt++ {
		lines = append(lines, fmt.Sprintf("%s %s", dt, hex.EncodeToString(pkts[dt])))
	}
	for _, pkt := range goldenEpochDgrams(t) {
		lines = append(lines, fmt.Sprintf("epoch/%s %s", DgramType(pkt[3]), hex.EncodeToString(pkt)))
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenDgramPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDgramPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenDgramPath)
	if err != nil {
		t.Fatalf("reading fixtures (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatal("datagram encoding diverged from committed golden vectors; if intentional, rerun with -update and review the diff")
	}

	// Every fixture must decode back to its labelled type.
	pub := testSigner(t).Public().(ed25519.PublicKey)
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		parts := strings.Fields(line)
		raw, err := hex.DecodeString(parts[1])
		if err != nil {
			t.Fatalf("fixture %q: %v", line, err)
		}
		d, err := DecodeDgram(raw)
		if err != nil {
			t.Fatalf("fixture %q failed to decode: %v", line, err)
		}
		if d.Type.String() != strings.TrimPrefix(parts[0], "epoch/") {
			t.Errorf("fixture %q decoded as %v", line, d.Type)
		}
		if d.Group != 0x01020304 || d.Epoch != 9 {
			t.Errorf("fixture %q decoded group=%d epoch=%d", line, d.Group, d.Epoch)
		}
		if d.Type == DgramKeys || d.Type == DgramParity {
			if !VerifyDgram(pub, raw) {
				t.Errorf("fixture %q signature did not verify", line)
			}
		}
	}
}

func TestDgramRoundTrip(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	itemBuf, _ := testEpochItems(t, 1)
	var shard []byte
	shard = binaryAppendUint16(shard, 1)
	shard = AppendShardEntry(shard, 3, itemBuf)

	pkt := EncodeShardDgram(priv, DgramKeys, 5, 100, 2, 1, 8, shard)
	d, err := DecodeDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != DgramKeys || d.Group != 5 || d.Epoch != 100 || d.Block != 2 || d.Shard != 1 || d.K != 8 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(d.Payload, shard) {
		t.Fatal("payload mismatch")
	}
	if !VerifyDgram(pub, pkt) {
		t.Fatal("valid packet did not verify")
	}
	idx, items, err := ParseShardEntries(d.Payload)
	if err != nil || len(idx) != 1 || idx[0] != 3 || !bytes.Equal(items[0], itemBuf) {
		t.Fatalf("shard entries: idx=%v err=%v", idx, err)
	}
	// Padding after the counted entries (a reconstructed shard) is tolerated.
	padded := append(append([]byte(nil), shard...), make([]byte, 40)...)
	idx2, _, err := ParseShardEntries(padded)
	if err != nil || len(idx2) != 1 {
		t.Fatalf("padded shard entries: idx=%v err=%v", idx2, err)
	}

	// Any single-byte flip must break the signature.
	for pos := 0; pos < len(pkt); pos += 3 {
		mut := append([]byte(nil), pkt...)
		mut[pos] ^= 0x10
		if VerifyDgram(pub, mut) {
			t.Fatalf("flip at byte %d still verified", pos)
		}
	}
	// A packet signed by another key must not verify.
	other := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	if VerifyDgram(other.Public().(ed25519.PublicKey), pkt) {
		t.Fatal("foreign key verified the packet")
	}
}

func TestMemberDgramRoundTrip(t *testing.T) {
	material := make([]byte, keycrypt.KeySize)
	for i := range material {
		material[i] = byte(i)
	}
	leaf, err := keycrypt.NewKey(3, 1, material)
	if err != nil {
		t.Fatal(err)
	}
	body := NackBody{Epoch: 44, LossPermille: 125, Blocks: []NackBlock{{Block: 1, Have: 2}}}
	sealed, err := keycrypt.Seal(leaf, body.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := EncodeMemberDgram(DgramNack, 2, 44, 17, sealed)
	d, err := DecodeDgram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != DgramNack || d.Member != 17 || d.Epoch != 44 {
		t.Fatalf("decoded %+v", d)
	}
	pt, err := keycrypt.Open(leaf, d.Sealed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNackBody(pt)
	if err != nil || got.Epoch != 44 || got.LossPermille != 125 || len(got.Blocks) != 1 || got.Blocks[0].Have != 2 {
		t.Fatalf("nack body: %+v err=%v", got, err)
	}
	// A different leaf key must not open it.
	wrong, _ := keycrypt.NewKey(3, 1, reverse(material))
	if _, err := keycrypt.Open(wrong, d.Sealed); err == nil {
		t.Fatal("foreign leaf key opened the sealed nack")
	}
}

// shardFields is a keys packet header with k=1, the given leaf fields and
// rest zero bytes after them.
func shardFields(leaf, leaves uint32, rest int) []byte {
	b := appendDgramHdr(nil, DgramKeys, 1, 1)
	b = append(b, 0, 0, 0, 1)
	b = binary.BigEndian.AppendUint32(b, leaf)
	b = binary.BigEndian.AppendUint32(b, leaves)
	return append(b, make([]byte, rest)...)
}

func TestDecodeDgramRejects(t *testing.T) {
	v1 := shardFields(0, 1, 96) // decodes but for its version byte
	if _, err := DecodeDgram(v1); err != nil {
		t.Fatal(err)
	}
	v1[2] = 1
	cases := [][]byte{
		nil,
		{dgramMagic0},
		[]byte("not a groupkey datagram header"),
		v1,
		append([]byte{dgramMagic0, dgramMagic1, DgramVersion, 0}, make([]byte, 12)...),                                      // type 0
		append([]byte{dgramMagic0, dgramMagic1, DgramVersion, 0xff}, make([]byte, 12)...),                                   // unknown type
		appendDgramHdr(nil, DgramKeys, 1, 1),                                                                                // shard with no body
		appendDgramHdr(nil, DgramHello, 1, 1),                                                                               // hello with no member
		EncodeMemberDgram(DgramHello, 1, 1, 0, []byte("sealed")),                                                            // zero member
		make([]byte, MaxDgramSize+1),                                                                                        // oversized
		append(appendDgramHdr(nil, DgramKeys, 1, 1), append([]byte{0, 0, 0, 0}, make([]byte, ed25519.SignatureSize)...)...), // k=0 shard
		shardFields(0, 0, 96),  // leaf count 0
		shardFields(1, 1, 96),  // leaf == count
		shardFields(0, 1, 95),  // one-leaf trailer truncated
		shardFields(3, 4, 159), // four-leaf trailer (path of 2) truncated
	}
	for i, c := range cases {
		if _, err := DecodeDgram(c); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

func TestParseShardEntriesRejects(t *testing.T) {
	if _, _, err := ParseShardEntries(nil); err == nil {
		t.Error("nil shard parsed")
	}
	// Count promises more entries than the bytes hold.
	short := binaryAppendUint16(nil, 3)
	short = append(short, make([]byte, shardEntrySize)...)
	if _, _, err := ParseShardEntries(short); err == nil {
		t.Error("short shard parsed")
	}
}

// testEpochShards returns a 3-block epoch's shards: blocks of 3, 3 and 1
// source shards of two items each, the first two with two parity shards
// and the last with one — 12 packets, a depth-4 tree with four padding
// leaves.
func testEpochShards(t testing.TB) []EpochShard {
	t.Helper()
	itemBuf, _ := testEpochItems(t, 14)
	var shards []EpochShard
	src := 0
	for b, k := range []int{3, 3, 1} {
		var size int
		for j := 0; j < k; j++ {
			shard := binaryAppendUint16(nil, 2)
			for it := 2 * src; it < 2*src+2; it++ {
				shard = AppendShardEntry(shard, uint32(it), itemBuf[it*RekeyItemSize:(it+1)*RekeyItemSize])
			}
			size = len(shard)
			shards = append(shards, EpochShard{Type: DgramKeys, Block: uint16(b), Shard: uint8(j), K: uint8(k), Payload: shard})
			src++
		}
		for j := 0; j < min(k, 2); j++ {
			parity := bytes.Repeat([]byte{byte(0x40 + 3*b + j)}, size)
			shards = append(shards, EpochShard{Type: DgramParity, Block: uint16(b), Shard: uint8(k + j), K: uint8(k), Payload: parity})
		}
	}
	return shards
}

// warmVerifier returns a verifier that has checked one packet of pkts'
// epoch, so the epoch's root and signature are cached.
func warmVerifier(t testing.TB, pub ed25519.PublicKey, pkts [][]byte) *DgramVerifier {
	t.Helper()
	v := NewDgramVerifier(pub)
	if !v.Verify(pkts[0]) {
		t.Fatal("valid packet did not verify")
	}
	return v
}

// TestDgramVerifierRejectsEveryMutation encodes a 3-block epoch and flips
// every byte of every packet — header, leaf index, leaf count, payload,
// path, root and signature — two ways: no mutant verifies, whether the
// verifier holds the epoch's root or nothing, and the warm verifier still
// accepts every genuine packet afterwards.
func TestDgramVerifierRejectsEveryMutation(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	shards := testEpochShards(t)
	pkts := EncodeEpochDgrams(priv, 7, 40, shards)
	if len(pkts) != 12 {
		t.Fatalf("%d packets, want 12", len(pkts))
	}
	warm := warmVerifier(t, pub, pkts)
	for i, pkt := range pkts {
		d, err := DecodeDgram(pkt)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		sh := shards[i]
		if d.Type != sh.Type || d.Block != sh.Block || d.Shard != sh.Shard || d.K != sh.K ||
			d.Leaf != uint32(i) || d.Leaves != 12 || !bytes.Equal(d.Payload, sh.Payload) {
			t.Fatalf("packet %d decoded as %+v", i, d)
		}
		if want := ShardDgramSize(len(sh.Payload), len(pkts)); len(pkt) != want {
			t.Fatalf("packet %d is %d bytes, ShardDgramSize says %d", i, len(pkt), want)
		}
		if !VerifyDgram(pub, pkt) || !warm.Verify(pkt) {
			t.Fatalf("genuine packet %d did not verify", i)
		}
		for pos := range pkt {
			for _, flip := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), pkt...)
				mut[pos] ^= flip
				if VerifyDgram(pub, mut) {
					t.Fatalf("packet %d: flip %#x at byte %d verified cold", i, flip, pos)
				}
				if warm.Verify(mut) {
					t.Fatalf("packet %d: flip %#x at byte %d verified warm", i, flip, pos)
				}
			}
		}
	}
	for i, pkt := range pkts {
		if !warm.Verify(pkt) {
			t.Fatalf("genuine packet %d rejected after the mutants", i)
		}
	}
	other := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	if VerifyDgram(other.Public().(ed25519.PublicKey), pkts[3]) {
		t.Fatal("foreign key verified the packet")
	}
}

// TestDgramVerifierBindsEpochAndGroup splices epoch e's valid root and
// signature onto packets claiming epoch e+1 or another group: relabelled
// headers break the path, and a consistent tree over the relabelled
// bodies has a root the signature does not cover.
func TestDgramVerifierBindsEpochAndGroup(t *testing.T) {
	priv := testSigner(t)
	pub := priv.Public().(ed25519.PublicKey)
	shards := testEpochShards(t)
	const g, e = 7, 40
	pkts := EncodeEpochDgrams(priv, g, e, shards)
	trailer := HashSize + ed25519.SignatureSize
	rootSig := pkts[0][len(pkts[0])-trailer:]
	// The attacker's trees: same shards, another label, its own key.
	forger := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{9}, ed25519.SeedSize))
	for name, relabelled := range map[string][][]byte{
		"next epoch":    EncodeEpochDgrams(forger, g, e+1, shards),
		"another group": EncodeEpochDgrams(forger, g+1, e, shards),
	} {
		for i := range pkts {
			spliced := append([]byte(nil), relabelled[i][:len(relabelled[i])-trailer]...)
			spliced = append(spliced, rootSig...)
			header := append([]byte(nil), pkts[i]...)
			copy(header, relabelled[i][:dgramHdrSize])
			for kind, pkt := range map[string][]byte{"tree": spliced, "header": header} {
				if VerifyDgram(pub, pkt) {
					t.Fatalf("%s, %s relabel of packet %d verified cold", name, kind, i)
				}
				if warmVerifier(t, pub, pkts).Verify(pkt) {
					t.Fatalf("%s, %s relabel of packet %d verified warm", name, kind, i)
				}
			}
		}
	}
}

// TestDgramVerifierWarmAllocs: checking a packet of the cached epoch
// hashes its body in place and walks its path on the stack.
func TestDgramVerifierWarmAllocs(t *testing.T) {
	priv := testSigner(t)
	pkts := EncodeEpochDgrams(priv, 7, 40, testEpochShards(t))
	v := warmVerifier(t, priv.Public().(ed25519.PublicKey), pkts)
	for i, pkt := range pkts {
		if n := testing.AllocsPerRun(50, func() {
			if !v.Verify(pkt) {
				t.Fatalf("packet %d did not verify", i)
			}
		}); n != 0 {
			t.Fatalf("warm Verify of packet %d: %v allocs/op", i, n)
		}
	}
}

// FuzzDecodeDgram hunts for panics in the datagram parser, the nested
// shard/NACK body parsers and the shard verifier, cold and warm. The only
// packets the verifier may accept are the genuine seeds: any other input
// it accepts is a forgery.
func FuzzDecodeDgram(f *testing.F) {
	priv := testSigner(f)
	pub := priv.Public().(ed25519.PublicKey)
	itemBuf, _ := testEpochItems(f, 1)
	var shard []byte
	shard = binaryAppendUint16(shard, 1)
	shard = AppendShardEntry(shard, 0, itemBuf)
	single := EncodeShardDgram(priv, DgramKeys, 1, 2, 0, 0, 2, shard)
	epoch := EncodeEpochDgrams(priv, 1, 3, testEpochShards(f))
	genuine := map[string]bool{string(single): true}
	for _, pkt := range epoch {
		genuine[string(pkt)] = true
	}
	setLeaf := func(pkt []byte, leaf, leaves uint32) []byte {
		out := append([]byte(nil), pkt...)
		binary.BigEndian.PutUint32(out[dgramHdrSize+4:], leaf)
		binary.BigEndian.PutUint32(out[dgramHdrSize+8:], leaves)
		return out
	}
	f.Add(single)
	f.Add(epoch[0])
	f.Add(epoch[6])
	f.Add(epoch[len(epoch)-1])
	f.Add(epoch[5][:len(epoch[5])-1])                                // truncated signature
	f.Add(epoch[5][:len(epoch[5])-HashSize-ed25519.SignatureSize-3]) // truncated path
	f.Add(setLeaf(epoch[2], 0, 0))                                   // leaf count 0
	f.Add(setLeaf(epoch[2], 14, 14))                                 // leaf == count
	f.Add(setLeaf(epoch[2], 20, 14))                                 // leaf > count
	f.Add(EncodeMemberDgram(DgramNack, 1, 2, 3, []byte("sealed bytes")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cold := VerifyDgram(pub, data)
		warm := warmVerifier(t, pub, epoch).Verify(data)
		if (cold || warm) && !genuine[string(data)] {
			t.Fatalf("verifier accepted a packet the server never sent (cold %v, warm %v)", cold, warm)
		}
		d, err := DecodeDgram(data)
		if err != nil {
			if cold || warm {
				t.Fatal("verifier accepted a packet DecodeDgram rejects")
			}
			return
		}
		switch d.Type {
		case DgramKeys:
			_, _, _ = ParseShardEntries(d.Payload)
		case DgramNack:
			_, _ = DecodeNackBody(d.Sealed)
		}
	})
}

// neededBlocksOracle scans every block's item range for the indexes of
// idx it carries and the source shards they sit in.
func neededBlocksOracle(idx []uint32, kpd int, blocks []DigestBlock) []NeededBlock {
	var need []NeededBlock
	lo := 0
	for _, blk := range blocks {
		hi := lo + int(blk.K)*kpd
		nb := NeededBlock{DigestBlock: blk}
		for _, v := range idx {
			if int(v) >= lo && int(v) < hi {
				nb.Indexes = append(nb.Indexes, v)
				if s := uint8((int(v) - lo) / kpd); !slices.Contains(nb.Sources, s) {
					nb.Sources = append(nb.Sources, s)
				}
			}
		}
		if nb.Indexes != nil {
			need = append(need, nb)
		}
		lo = hi
	}
	return need
}

// TestNeededBlocks pins the block choice on a geometry whose last block is
// short: two items per shard, blocks of 4, 4 and 1 shards hold items
// [0,8), [8,16) and [16,18).
func TestNeededBlocks(t *testing.T) {
	blocks := []DigestBlock{{Block: 0, K: 4, Shards: 5}, {Block: 1, K: 4, Shards: 6}, {Block: 2, K: 1, Shards: 2}}
	for _, tc := range []struct {
		idx  []uint32
		want []uint16
	}{
		{nil, nil},
		{[]uint32{0}, []uint16{0}},
		{[]uint32{7}, []uint16{0}},
		{[]uint32{8}, []uint16{1}},
		{[]uint32{7, 8}, []uint16{0, 1}},
		{[]uint32{17}, []uint16{2}},
		{[]uint32{3, 17, 18}, []uint16{0, 2}},
		{[]uint32{18, 40}, nil}, // past the last block
	} {
		var got []uint16
		for _, blk := range NeededBlocks(tc.idx, 2, blocks) {
			got = append(got, blk.Block)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("NeededBlocks(%v) = blocks %v, want %v", tc.idx, got, tc.want)
		}
	}
}

// FuzzNeededBlocks holds NeededBlocks to the brute-force scan on random
// geometries (keys per shard, block count and sizes) and ascending index
// sets, empty ones and ones running past the last block included.
func FuzzNeededBlocks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 4, 4, 1, 0, 6, 7, 200})
	f.Add([]byte{11, 5, 255, 255, 8, 255, 1, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		kpd := 1 + next()%12
		blocks := make([]DigestBlock, next()%7)
		for b := range blocks {
			k := 1 + next()%255
			blocks[b] = DigestBlock{Block: uint16(b), K: uint8(k), Shards: uint8(min(255, k+next()%9))}
		}
		var idx []uint32
		for v := -1; len(data) > 0; {
			v += 1 + next()
			idx = append(idx, uint32(v))
		}
		got := NeededBlocks(idx, kpd, blocks)
		if want := neededBlocksOracle(idx, kpd, blocks); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("kpd %d, blocks %v, indexes %v: got %v, want %v", kpd, blocks, idx, got, want)
		}
	})
}
