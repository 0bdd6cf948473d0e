package wire

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"slices"

	"groupkey/internal/keycrypt"
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

// MaxSparseIndexes bounds k in one sparse frame, and so the items an
// epoch may seal: a frame carrying all of them must fit MaxFrameSize with
// its proof count and proof. An all-leaves multiproof holds at most one
// padding hash per tree level, and nLeaves is a uint32 (≤ 32 levels).
const MaxSparseIndexes = (MaxFrameSize - sparseFixedSize - 2 - 32*HashSize) / (4 + RekeyItemSize)

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

// SparseIndex inverts the items' explicit receiver lists: member → the
// ascending item (leaf) indexes naming it. Path-addressed items (no
// Receivers — every multicast item of a key-tree rekey) name nobody here,
// so this is not a member's share of an epoch: ScopedIndex.Build applies
// the whole addressing rule. It stays for callers that count explicit
// deliveries, such as the epoch benchmark's traced replay.
func SparseIndex(items []keytree.Item) map[keytree.MemberID][]uint32 {
	index := make(map[keytree.MemberID][]uint32)
	for i, it := range items {
		for _, r := range it.Receivers {
			index[r] = append(index[r], uint32(i))
		}
	}
	return index
}

// KeyPath appends the IDs of the keys member m holds — its individual key
// first, the group key last — to buf and returns it; a member the scheme
// does not hold appends nothing. core.Scheme.PathIDs and
// keytree.Tree.PathIDs are KeyPaths.
type KeyPath func(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID

// ScopedIndex maps an epoch's items to an audience — the members connected
// when the epoch is sealed — in compressed-row form: the member at position
// p of the ascending audience needs items idx[off[p]:off[p+1]], ascending.
//
// Build applies the one addressing rule of keytree.Item.Receivers: an item
// with Receivers goes to exactly those members; an item without is
// path-addressed and goes to every member whose key path holds its
// WrapperID, unless an explicit item of the epoch hands that member the same
// PayloadID (joiners take their path keys from their own items). Each
// audience member's indexes come from walking its path through a table of
// wrapping keys, so Build costs O(items + audience · depth), never the group
// size, and allocates nothing once its slabs and tables have grown. The
// zero value is ready to Build.
type ScopedIndex struct {
	off []int
	idx []uint32

	// Build's tables, kept for reuse. One wrapping key can own more than
	// one item — an OldKeyWrap under a node's old version and a ChildWrap
	// under its new one — so each table entry heads a chain.
	byWrapper chainTable  // WrapperID → newest path-addressed item under it
	nextWrap  []int32     // item → older item, same WrapperID
	byMember  chainTable  // member → newest explicit link naming it
	links     []namedLink // explicit (member, item) pairs, chained
	path      []keycrypt.KeyID
}

// namedLink records that an explicit item names one member; next is the
// member's previous link, or -1.
type namedLink struct {
	item, next int32
}

// Build indexes items for audience, which must ascend without duplicates,
// reading members' key paths through path (unused for an empty audience).
// It replaces any previous contents and invalidates slices earlier
// At calls returned.
func (x *ScopedIndex) Build(items []keytree.Item, audience []keytree.MemberID, path KeyPath) {
	x.off = resized(x.off, len(audience)+1)
	x.off[0] = 0
	x.idx = x.idx[:0]
	if len(audience) == 0 {
		return
	}
	x.index(items)
	for p, m := range audience {
		x.path = path(m, x.path[:0])
		x.idx = x.appendMember(x.idx, items, m)
		x.off[p+1] = len(x.idx)
	}
}

// index fills the tables: path-addressed items by wrapping key, explicit
// ones by the members they name.
func (x *ScopedIndex) index(items []keytree.Item) {
	named := 0
	for _, it := range items {
		named += len(it.Receivers)
	}
	x.byWrapper.reset(len(items))
	x.byMember.reset(named)
	x.nextWrap = resized(x.nextWrap, len(items))
	x.links = x.links[:0]
	for i, it := range items {
		if len(it.Receivers) == 0 {
			x.nextWrap[i] = x.byWrapper.push(uint64(it.Wrapped.WrapperID), int32(i))
			continue
		}
		for _, m := range it.Receivers {
			next := x.byMember.push(uint64(m), int32(len(x.links)))
			x.links = append(x.links, namedLink{item: int32(i), next: next})
		}
	}
}

// chainTable maps a key to the head of a chain of indexes: open addressing
// with linear probing over a power-of-two slab kept at most half full.
// Build probes it once per key on every audience member's path, where a
// Go map costs several times as much.
type chainTable struct {
	slots []chainSlot
	shift uint
}

type chainSlot struct {
	key  uint64
	head int32 // -1: free
}

// reset empties the table and sizes it for up to n keys.
func (t *chainTable) reset(n int) {
	bits := uint(4)
	for 1<<bits < 2*n {
		bits++
	}
	t.slots = resized(t.slots, 1<<bits)
	for i := range t.slots {
		t.slots[i].head = -1
	}
	t.shift = 64 - bits
}

// at returns k's slot: the one holding k, or the free one k would take.
// Its head is k's chain head, -1 when k is absent.
func (t *chainTable) at(k uint64) *chainSlot {
	mask := uint64(len(t.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.head < 0 || s.key == k {
			return s
		}
	}
}

// push makes v the head of k's chain and returns the previous head, or -1.
func (t *chainTable) push(k uint64, v int32) int32 {
	s := t.at(k)
	prev := s.head
	s.key, s.head = k, v
	return prev
}

// appendMember appends member m's ascending item indexes to dst, m's key
// path being in x.path: the explicit items naming m, then every item
// wrapped under a key on the path whose payload no explicit item hands m.
func (x *ScopedIndex) appendMember(dst []uint32, items []keytree.Item, m keytree.MemberID) []uint32 {
	start := len(dst)
	for l := x.byMember.at(uint64(m)).head; l >= 0; l = x.links[l].next {
		dst = append(dst, uint32(x.links[l].item))
	}
	explicit := len(dst)
	for _, id := range x.path {
		for i := x.byWrapper.at(uint64(id)).head; i >= 0; i = x.nextWrap[i] {
			if !handsPayload(items, dst[start:explicit], items[i].Wrapped.PayloadID) {
				dst = append(dst, uint32(i))
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// handsPayload reports whether one of the explicit items at idx carries
// payload key id.
func handsPayload(items []keytree.Item, idx []uint32, id keycrypt.KeyID) bool {
	for _, e := range idx {
		if items[e].Wrapped.PayloadID == id {
			return true
		}
	}
	return false
}

// Addressed returns a copy of items in which every path-addressed item
// carries, as Receivers, the audience members Build sends it to — the
// explicit form offline consumers read (simulated transports, the DST
// world, tests). Explicit items keep their lists. For whole-group lists,
// pass the whole group as the audience.
func Addressed(items []keytree.Item, audience []keytree.MemberID, path KeyPath) []keytree.Item {
	var x ScopedIndex
	x.Build(items, audience, path)
	lists := make([][]keytree.MemberID, len(items))
	for p, m := range audience {
		for _, i := range x.At(p) {
			lists[i] = append(lists[i], m)
		}
	}
	out := slices.Clone(items)
	for i := range out {
		if len(out[i].Receivers) == 0 {
			out[i].Receivers = lists[i]
		}
	}
	return out
}

// resized returns s with length n and unspecified contents, reallocating
// only when its capacity falls short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// At returns the ascending item indexes of the member at audience
// position p (empty when the epoch carries nothing for it, as for an
// audience member the scheme does not hold: a leaver still connected at
// the seal).
func (x *ScopedIndex) At(p int) []uint32 {
	lo, hi := x.off[p], x.off[p+1]
	return x.idx[lo:hi:hi]
}

// HashRekeyItem returns the item-tree leaf hash of one RekeyItemSize-byte
// item encoding — datagram receivers use it to cross-check collected items
// against the digest root.
func HashRekeyItem(item []byte) []byte {
	h := hashLeaf(item)
	return h[:]
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
	leafHashes, hashBuf := make([][]byte, k), make([]byte, k*HashSize)
	for i := 0; i < k; i++ {
		h := hashLeaf(itemBytes[i*RekeyItemSize : (i+1)*RekeyItemSize])
		leafHashes[i] = hashBuf[i*HashSize : (i+1)*HashSize]
		copy(leafHashes[i], h[:])
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

// NeededBlock is one block a receiver reads: the indexes it carries and
// the source shards, numbered within the block, that carry them.
type NeededBlock struct {
	DigestBlock
	Indexes []uint32 // a subslice of the receiver's indexes
	Sources []uint8  // ascending
}

// NeededBlocks returns the blocks, in order, that carry any of the
// ascending item indexes idx when each source shard carries kpd items:
// data shard j (global, sequential across blocks) holds items
// [j·kpd, (j+1)·kpd). Indexes past the last block are ignored.
func NeededBlocks(idx []uint32, kpd int, blocks []DigestBlock) []NeededBlock {
	if kpd < 1 {
		return nil // a shard carries no items
	}
	var need []NeededBlock
	i, first := 0, 0 // first: the block's first global source shard
	for _, blk := range blocks {
		nb := NeededBlock{DigestBlock: blk}
		lo := i
		for ; i < len(idx) && int(idx[i])/kpd < first+int(blk.K); i++ {
			s := uint8(int(idx[i])/kpd - first)
			if n := len(nb.Sources); n == 0 || nb.Sources[n-1] != s {
				nb.Sources = append(nb.Sources, s)
			}
		}
		if i > lo {
			nb.Indexes = idx[lo:i:i]
			need = append(need, nb)
		}
		first += int(blk.K)
	}
	return need
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
	Sig       []byte   // over SparseSigningMessage
	ShardSize uint16   // canonical padded shard bytes, for RS reconstruction
	Indexes   []uint32 // the member's positions in the datagram packing
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
