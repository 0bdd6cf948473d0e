package wire

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"groupkey/internal/keytree"
)

// Sparse rekey fan-out: the server encodes an epoch's items exactly once,
// builds the item tree (merkle.go), signs the root, and sends each member
// only the items on its key-tree path:
//
//	epoch(8) ‖ nLeaves(4) ‖ root(32) ‖ rootSig(64) ‖ k(4) ‖ k×leafIdx(4)
//	‖ nProof(2) ‖ nProof×hash(32) ‖ k×item(RekeyItemSize)
//
// A k == 0 frame is the epoch heartbeat: nothing to deliver, but the
// signed root still proves the epoch happened. The same signed root also
// anchors the datagram plane's digest (MsgRekeyDigest) and the TCP repair
// path (MsgRekeyPull → MsgRekeySparse).

// sparseDomain separates the root signature from every other signed blob.
const sparseDomain = "groupkey/sparse-rekey/v1"

// sparseFixedSize is everything before the index list.
const sparseFixedSize = 8 + 4 + HashSize + ed25519.SignatureSize + 4

// MaxSparseIndexes bounds k in one sparse frame.
const MaxSparseIndexes = (MaxFrameSize - sparseFixedSize) / (4 + RekeyItemSize)

// SparseSigningMessage is the byte string the epoch root signature covers:
// domain ‖ epoch ‖ nLeaves ‖ root. Binding the leaf count prevents a
// truncated tree passing as a smaller epoch.
func SparseSigningMessage(epoch uint64, nLeaves uint32, root [HashSize]byte) []byte {
	out := make([]byte, 0, len(sparseDomain)+12+HashSize)
	out = append(out, sparseDomain...)
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = binary.BigEndian.AppendUint32(out, nLeaves)
	return append(out, root[:]...)
}

// SignSparse signs the epoch's item-tree root: one signature
// authenticates every member's sparse frame.
func SignSparse(priv ed25519.PrivateKey, epoch uint64, nLeaves uint32, root [HashSize]byte) []byte {
	return ed25519.Sign(priv, SparseSigningMessage(epoch, nLeaves, root))
}

// SparseIndex inverts the items' receiver lists: member → the ascending
// item (leaf) indexes that member needs. Items with empty receiver lists
// reach nobody sparsely — the schemes always populate Receivers. Each
// member's indexes ascend because the outer loop does. This is the
// whole-group form (cost grows with the group size) that experiments and
// tests use as the oracle; the server seals epochs with ScopedIndex.
func SparseIndex(items []keytree.Item) map[keytree.MemberID][]uint32 {
	index := make(map[keytree.MemberID][]uint32)
	for i, it := range items {
		for _, r := range it.Receivers {
			index[r] = append(index[r], uint32(i))
		}
	}
	return index
}

// ScopedIndex is SparseIndex restricted to an audience — the members
// connected when the epoch is sealed — in compressed-row form: the member
// at position p of the ascending audience needs items idx[off[p]:off[p+1]].
// Build intersects each item's receiver list with the audience instead of
// inverting it, so its cost follows the audience and item counts, not the
// group size, and it allocates nothing once its slabs have grown. The zero
// value is ready to Build.
type ScopedIndex struct {
	ids  []keytree.MemberID
	off  []int
	idx  []uint32
	hits []uint64 // Build scratch: item<<32 | audience position, item-major
}

// Build indexes items for audience, which must ascend without duplicates
// (as every item's Receivers do). It replaces any previous contents and
// invalidates slices earlier At/Lookup calls returned.
func (x *ScopedIndex) Build(items []keytree.Item, audience []keytree.MemberID) {
	x.ids = append(x.ids[:0], audience...)
	n := len(x.ids)
	// Counts land two slots ahead of their position so that, after the
	// prefix sum, off[p+1] is position p's fill cursor and ends the fill as
	// p's end offset — one slab serves as counter, cursor and result.
	x.off = resized(x.off, n+2)
	clear(x.off)
	x.hits = x.hits[:0]
	for i, it := range items {
		// Walk the shorter list, seek in the longer: a root-level item
		// addressed to the whole group costs |audience| seeks, a leaf-level
		// item addressed to one member costs one.
		short, long := it.Receivers, x.ids
		overAudience := len(short) > len(long)
		if overAudience {
			short, long = long, short
		}
		at := 0
		for p, m := range short {
			at += seek(long[at:], m)
			if at == len(long) {
				break
			}
			if long[at] != m {
				continue
			}
			pos := at
			if overAudience {
				pos = p
			}
			x.hits = append(x.hits, uint64(i)<<32|uint64(pos))
			x.off[pos+2]++
			at++
		}
	}
	for p := 2; p < len(x.off); p++ {
		x.off[p] += x.off[p-1]
	}
	x.idx = resized(x.idx, len(x.hits))
	for _, h := range x.hits {
		cur := &x.off[uint32(h)+1]
		x.idx[*cur] = uint32(h >> 32)
		*cur++
	}
	x.off = x.off[:n+1]
}

// resized returns s with length n and unspecified contents, reallocating
// only when its capacity falls short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// seek returns the first position of the ascending s whose value is ≥ m
// (len(s) when there is none), probing at doubling strides before
// bisecting: two lists walked in step usually meet near the front, so a
// seek costs O(log distance) rather than O(log len).
func seek(s []keytree.MemberID, m keytree.MemberID) int {
	if len(s) == 0 || s[0] >= m {
		return 0
	}
	lo, hi := 0, 1 // s[lo] < m throughout
	for hi < len(s) && s[hi] < m {
		lo, hi = hi, 2*hi
	}
	hi = min(hi, len(s))
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); s[mid] < m {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// At returns the ascending item indexes of the member at audience
// position p (empty when the epoch carries nothing for it).
func (x *ScopedIndex) At(p int) []uint32 {
	lo, hi := x.off[p], x.off[p+1]
	return x.idx[lo:hi:hi]
}

// Lookup returns member m's item indexes and whether m was in the
// audience at all: false means "never indexed" — the caller must fall back
// to the full payload — not "nothing for you".
func (x *ScopedIndex) Lookup(m keytree.MemberID) ([]uint32, bool) {
	p, ok := slices.BinarySearch(x.ids, m)
	if !ok {
		return nil, false
	}
	return x.At(p), true
}

// HashRekeyItem returns the item-tree leaf hash of one RekeyItemSize-byte
// item encoding — datagram receivers use it to cross-check collected items
// against the digest root.
func HashRekeyItem(item []byte) []byte {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(item)
	return h.Sum(nil)
}

// AppendSparseHead appends everything before the item bytes — fixed
// header, index list and multiproof — to buf. The caller supplies the
// items themselves (typically as vectored ranges over the epoch's shared
// item buffer) immediately after.
func AppendSparseHead(buf []byte, epoch uint64, tree *ItemTree, root [HashSize]byte, rootSig []byte, idx []uint32) []byte {
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(tree.Leaves()))
	buf = append(buf, root[:]...)
	buf = append(buf, rootSig...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(idx)))
	for _, v := range idx {
		buf = binary.BigEndian.AppendUint32(buf, v)
	}
	// Reserve the proof count, fill after the walk.
	at := len(buf)
	buf = append(buf, 0, 0)
	buf, n := tree.AppendProof(buf, idx)
	binary.BigEndian.PutUint16(buf[at:], uint16(n))
	return buf
}

// SparseFrameSize returns the exact MsgRekeySparse payload size for idx —
// head plus item bytes — without building anything.
func SparseFrameSize(tree *ItemTree, idx []uint32) int {
	return sparseFixedSize + 4*len(idx) + 2 + tree.ProofSize(idx) + len(idx)*RekeyItemSize
}

// EncodeSparseRekey builds one complete sparse frame (head + item bytes).
// The server's hot path assembles frames from pooled buffers instead; this
// is the convenience form for repair replies and tests. items holds the
// epoch's full concatenated item encodings (RekeyItemSize each).
func EncodeSparseRekey(epoch uint64, tree *ItemTree, root [HashSize]byte, rootSig []byte, idx []uint32, items []byte) []byte {
	buf := make([]byte, 0, SparseFrameSize(tree, idx))
	buf = AppendSparseHead(buf, epoch, tree, root, rootSig, idx)
	for _, v := range idx {
		buf = append(buf, items[int(v)*RekeyItemSize:(int(v)+1)*RekeyItemSize]...)
	}
	return buf
}

// SparseRekey is a decoded, verified sparse frame.
type SparseRekey struct {
	Epoch   uint64
	NLeaves uint32
	Root    [HashSize]byte
	Indexes []uint32
	Items   []keytree.Item
}

// DecodeSparseRekey parses a MsgRekeySparse payload, verifies the root
// signature against the server key and the items against the root's
// multiproof, and returns the carried items. Signature or proof failure is
// ErrBadSignature; structural damage is ErrMalformed.
func DecodeSparseRekey(pub ed25519.PublicKey, b []byte) (SparseRekey, error) {
	var sr SparseRekey
	if len(b) < sparseFixedSize+2 {
		return sr, fmt.Errorf("%w: sparse rekey %d bytes", ErrMalformed, len(b))
	}
	sr.Epoch = binary.BigEndian.Uint64(b[0:8])
	sr.NLeaves = binary.BigEndian.Uint32(b[8:12])
	copy(sr.Root[:], b[12:12+HashSize])
	sig := b[12+HashSize : 12+HashSize+ed25519.SignatureSize]
	k := int(binary.BigEndian.Uint32(b[sparseFixedSize-4 : sparseFixedSize]))
	if k > MaxSparseIndexes || k > int(sr.NLeaves) {
		return sr, fmt.Errorf("%w: %d sparse indexes", ErrMalformed, k)
	}
	rest := b[sparseFixedSize:]
	if len(rest) < 4*k+2 {
		return sr, fmt.Errorf("%w: sparse index list truncated", ErrMalformed)
	}
	idx := make([]uint32, k)
	for i := range idx {
		idx[i] = binary.BigEndian.Uint32(rest[4*i:])
	}
	rest = rest[4*k:]
	nProof := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) != nProof*HashSize+k*RekeyItemSize {
		return sr, fmt.Errorf("%w: sparse frame body %d bytes", ErrMalformed, len(rest))
	}
	proof, itemBytes := rest[:nProof*HashSize], rest[nProof*HashSize:]

	if len(pub) != ed25519.PublicKeySize ||
		!ed25519.Verify(pub, SparseSigningMessage(sr.Epoch, sr.NLeaves, sr.Root), sig) {
		return sr, ErrBadSignature
	}
	if k == 0 {
		if nProof != 0 {
			return sr, fmt.Errorf("%w: proof on empty sparse frame", ErrMalformed)
		}
		return sr, nil
	}
	leafHashes := make([][]byte, k)
	for i := 0; i < k; i++ {
		leafHashes[i] = HashRekeyItem(itemBytes[i*RekeyItemSize : (i+1)*RekeyItemSize])
	}
	if err := VerifyItemProof(int(sr.NLeaves), idx, leafHashes, proof, sr.Root); err != nil {
		return sr, err
	}
	sr.Indexes = idx
	sr.Items = make([]keytree.Item, 0, k)
	for i := 0; i < k; i++ {
		it, err := DecodeRekeyItem(itemBytes[i*RekeyItemSize : (i+1)*RekeyItemSize])
		if err != nil {
			return sr, fmt.Errorf("wire: sparse item %d: %w", i, err)
		}
		sr.Items = append(sr.Items, it)
	}
	return sr, nil
}

// DigestBlock describes one FEC block of the datagram plane a member must
// collect: K source shards of which Shards (source + proactive parity)
// were transmitted.
type DigestBlock struct {
	Block  uint16
	K      uint8
	Shards uint8
}

// RekeyDigest is a MsgRekeyDigest payload: the epoch announcement for a
// member whose keys travel over UDP. Root and signature make the epoch's
// existence unforgeable; the index and block lists are advisory (a forged
// list cannot plant keys — datagrams verify individually — only delay the
// member into the authoritative TCP pull).
type RekeyDigest struct {
	Epoch     uint64
	NLeaves   uint32
	Root      [HashSize]byte
	Sig       []byte // over SparseSigningMessage
	ShardSize uint16 // canonical padded shard bytes, for RS reconstruction
	Indexes   []uint32
	Blocks    []DigestBlock
}

// Encode serializes the digest.
func (d RekeyDigest) Encode() []byte {
	out := make([]byte, 0, sparseFixedSize+2+4*len(d.Indexes)+2+4*len(d.Blocks))
	out = binary.BigEndian.AppendUint64(out, d.Epoch)
	out = binary.BigEndian.AppendUint32(out, d.NLeaves)
	out = append(out, d.Root[:]...)
	out = append(out, d.Sig...)
	out = binary.BigEndian.AppendUint16(out, d.ShardSize)
	out = binary.BigEndian.AppendUint32(out, uint32(len(d.Indexes)))
	for _, v := range d.Indexes {
		out = binary.BigEndian.AppendUint32(out, v)
	}
	out = binary.BigEndian.AppendUint16(out, uint16(len(d.Blocks)))
	for _, b := range d.Blocks {
		out = binary.BigEndian.AppendUint16(out, b.Block)
		out = append(out, b.K, b.Shards)
	}
	return out
}

// DecodeRekeyDigest parses and signature-verifies a MsgRekeyDigest payload.
func DecodeRekeyDigest(pub ed25519.PublicKey, b []byte) (RekeyDigest, error) {
	var d RekeyDigest
	const fixed = 8 + 4 + HashSize + ed25519.SignatureSize + 2 + 4
	if len(b) < fixed+2 {
		return d, fmt.Errorf("%w: rekey digest %d bytes", ErrMalformed, len(b))
	}
	d.Epoch = binary.BigEndian.Uint64(b[0:8])
	d.NLeaves = binary.BigEndian.Uint32(b[8:12])
	copy(d.Root[:], b[12:12+HashSize])
	d.Sig = append([]byte(nil), b[12+HashSize:12+HashSize+ed25519.SignatureSize]...)
	d.ShardSize = binary.BigEndian.Uint16(b[fixed-6 : fixed-4])
	k := int(binary.BigEndian.Uint32(b[fixed-4 : fixed]))
	if k > MaxSparseIndexes || k > int(d.NLeaves) {
		return d, fmt.Errorf("%w: %d digest indexes", ErrMalformed, k)
	}
	rest := b[fixed:]
	if len(rest) < 4*k+2 {
		return d, fmt.Errorf("%w: digest index list truncated", ErrMalformed)
	}
	d.Indexes = make([]uint32, k)
	prev := -1
	for i := range d.Indexes {
		d.Indexes[i] = binary.BigEndian.Uint32(rest[4*i:])
		if int(d.Indexes[i]) >= int(d.NLeaves) || int(d.Indexes[i]) <= prev {
			return d, fmt.Errorf("%w: digest index %d out of order or range", ErrMalformed, d.Indexes[i])
		}
		prev = int(d.Indexes[i])
	}
	rest = rest[4*k:]
	nb := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if len(rest) != 4*nb {
		return d, fmt.Errorf("%w: digest block list %d bytes", ErrMalformed, len(rest))
	}
	d.Blocks = make([]DigestBlock, nb)
	for i := range d.Blocks {
		d.Blocks[i] = DigestBlock{
			Block:  binary.BigEndian.Uint16(rest[4*i:]),
			K:      rest[4*i+2],
			Shards: rest[4*i+3],
		}
		if d.Blocks[i].K == 0 {
			return d, fmt.Errorf("%w: digest block %d has k=0", ErrMalformed, i)
		}
	}
	if len(pub) != ed25519.PublicKeySize ||
		!ed25519.Verify(pub, SparseSigningMessage(d.Epoch, d.NLeaves, d.Root), d.Sig) {
		return d, ErrBadSignature
	}
	return d, nil
}
