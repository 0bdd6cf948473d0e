package wire

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/bits"
)

// Sparse rekey authentication: signing every member's sparse frame
// individually would cost N signatures per epoch, and an unsigned item
// subset would let a member holding an interior wrapping key forge items
// for its subtree. Instead the server builds a Merkle tree over the
// epoch's item encodings, signs the root once, and each sparse frame
// carries its items plus a compact multiproof against that root — one
// signature per epoch, O(k·log I) authentication bytes per member.
//
// Construction: leaf i is H(0x00 ‖ item_i), interior nodes are
// H(0x01 ‖ left ‖ right) (domain-separated against second-preimage
// splicing), and the leaf level is padded with all-zero hashes to the next
// power of two. The empty payload (heartbeat epoch) has the all-zero root.
//
// The padding is implicit: each level stores only the nodes that cover a
// real leaf, and a node past them is the root of an all-padding subtree,
// whose hash depends on its level alone (zeroSubtree). A tree of n leaves
// hashes about 2n nodes, not twice the padded width, and its root,
// proofs and proof sizes are those of the padded tree.

// HashSize is the Merkle node size (SHA-256).
const HashSize = sha256.Size

const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// zeroSubtree[l] is the hash of an all-padding subtree of height l: the
// all-zero leaf hash at level 0, H(0x01 ‖ z ‖ z) above it. A frame's leaf
// count is a uint32, so no tree is more than 32 levels above its leaves.
var zeroSubtree = func() (z [33][HashSize]byte) {
	for l := 1; l < len(z); l++ {
		z[l] = hashNode(z[l-1][:], z[l-1][:])
	}
	return z
}()

// hashNode returns the interior hash H(0x01 ‖ left ‖ right).
func hashNode(left, right []byte) [HashSize]byte {
	var buf [1 + 2*HashSize]byte
	buf[0] = nodePrefix
	copy(buf[1:], left)
	copy(buf[1+HashSize:], right)
	return sha256.Sum256(buf[:])
}

// hashLeaf returns the leaf hash H(0x00 ‖ leaf), hashing from a stack
// buffer when the leaf is one rekey item or shorter.
func hashLeaf(leaf []byte) [HashSize]byte {
	buf := make([]byte, 0, 1+RekeyItemSize)
	buf = append(append(buf, leafPrefix), leaf...)
	return sha256.Sum256(buf)
}

// leafHasher computes leaf hashes into a caller's buffer. A leaf of one
// rekey item or shorter hashes from a stack buffer; a longer one (a whole
// datagram body) streams through one reused SHA-256 state, so it is never
// copied behind its prefix byte.
type leafHasher struct{ h hash.Hash }

var leafPrefixByte = []byte{leafPrefix}

// sumInto writes H(0x00 ‖ leaf) to dst, which must have room for HashSize
// bytes in its capacity.
func (lh *leafHasher) sumInto(dst, leaf []byte) {
	if len(leaf) <= RekeyItemSize {
		h := hashLeaf(leaf)
		copy(dst[:HashSize], h[:])
		return
	}
	if lh.h == nil {
		lh.h = sha256.New()
	}
	lh.h.Reset()
	lh.h.Write(leafPrefixByte)
	lh.h.Write(leaf)
	lh.h.Sum(dst[:0])
}

// ItemTree is the Merkle tree over one epoch's rekey items, or over its
// datagram bodies (dgram.go). Immutable after construction and safe for
// concurrent use.
type ItemTree struct {
	n int
	// levels[0] holds the leaf hashes, levels[len-1] the root, each level
	// the concatenation of the HashSize-byte nodes that cover a real leaf.
	levels [][]byte
}

// NewItemTree hashes n leaves (leaf(i) returns leaf i's byte encoding)
// and builds the tree. It calls leaf once per leaf, in ascending order,
// and keeps none of the returned slices. n == 0 yields the empty tree
// with an all-zero root.
func NewItemTree(n int, leaf func(i int) []byte) *ItemTree {
	t := &ItemTree{n: n}
	if n == 0 {
		return t
	}
	height := bits.Len(uint(n - 1))
	t.levels = make([][]byte, height+1)
	total := 0
	for l := range t.levels {
		total += (n + 1<<l - 1) >> l
	}
	slab := make([]byte, total*HashSize)
	for l := range t.levels {
		size := ((n + 1<<l - 1) >> l) * HashSize
		t.levels[l], slab = slab[:size:size], slab[size:]
	}
	var lh leafHasher
	for i := 0; i < n; i++ {
		lh.sumInto(t.levels[0][i*HashSize:], leaf(i))
	}
	for l := 1; l <= height; l++ {
		for i := 0; i < len(t.levels[l])/HashSize; i++ {
			h := hashNode(t.node(l-1, 2*i), t.node(l-1, 2*i+1))
			copy(t.levels[l][i*HashSize:], h[:])
		}
	}
	return t
}

// Leaves returns the (unpadded) leaf count.
func (t *ItemTree) Leaves() int { return t.n }

// Root returns the tree root (all-zero for the empty tree).
func (t *ItemTree) Root() (root [HashSize]byte) {
	if t.n == 0 {
		return root
	}
	copy(root[:], t.levels[len(t.levels)-1])
	return root
}

// node returns node i of a level, counting from its left edge; past the
// stored nodes it is the level's all-padding subtree.
func (t *ItemTree) node(level, i int) []byte {
	if lvl := t.levels[level]; (i+1)*HashSize <= len(lvl) {
		return lvl[i*HashSize : (i+1)*HashSize]
	}
	return zeroSubtree[level][:]
}

// AppendProof appends the multiproof for the given strictly-ascending leaf
// indexes to dst and returns the extended buffer plus the hash count. The
// proof order matches the deterministic level-by-level walk VerifyItemProof
// replays.
func (t *ItemTree) AppendProof(dst []byte, idx []uint32) ([]byte, int) {
	return t.walkProof(dst, idx, true)
}

// ProofSize returns the byte size of the multiproof for idx without
// materializing it — broadcast byte accounting uses it under the server
// lock.
func (t *ItemTree) ProofSize(idx []uint32) int {
	_, n := t.walkProof(nil, idx, false)
	return n * HashSize
}

// proofScratch is how many indexes the proof walk tracks on the stack: a
// member's key path is far shorter, so only a frame of many more items
// than any member is sent (a test's whole-epoch frame) takes its scratch
// from the heap.
const proofScratch = 64

// walkProof runs the multiproof walk: known subtrees ascend level by
// level; whenever a known node's sibling is not itself known, that sibling
// is one proof hash. Pairs of adjacent known indexes merge for free.
func (t *ItemTree) walkProof(dst []byte, idx []uint32, emit bool) ([]byte, int) {
	if t.n == 0 || len(idx) == 0 {
		return dst, 0
	}
	count := 0
	var scratch [proofScratch]int
	cur := scratch[:0]
	if len(idx) > len(scratch) {
		cur = make([]int, 0, len(idx))
	}
	for _, v := range idx {
		cur = append(cur, int(v))
	}
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		next := cur[:0] // safe in-place: writes trail reads (≤1 parent per consumed index)
		for i := 0; i < len(cur); {
			a := cur[i]
			if a%2 == 0 && i+1 < len(cur) && cur[i+1] == a+1 {
				i += 2
			} else {
				count++
				if emit {
					dst = append(dst, t.node(lvl, a^1)...)
				}
				i++
			}
			next = append(next, a/2)
		}
		cur = next
	}
	return dst, count
}

// VerifyItemProof recomputes the root from the given leaf hashes (for
// strictly-ascending indexes idx, each < nLeaves) and the multiproof
// bytes, and compares it to root. The whole proof must be consumed.
func VerifyItemProof(nLeaves int, idx []uint32, leafHashes [][]byte, proof []byte, root [HashSize]byte) error {
	if len(idx) == 0 || len(idx) != len(leafHashes) {
		return fmt.Errorf("%w: %d indexes, %d leaf hashes", ErrMalformed, len(idx), len(leafHashes))
	}
	if len(proof)%HashSize != 0 {
		return fmt.Errorf("%w: proof %d bytes", ErrMalformed, len(proof))
	}
	padded := 1
	for padded < nLeaves {
		padded <<= 1
	}
	prev := -1
	for _, v := range idx {
		if int(v) >= nLeaves || int(v) <= prev {
			return fmt.Errorf("%w: leaf index %d out of order or range", ErrMalformed, v)
		}
		prev = int(v)
	}
	var idxScratch [proofScratch]int
	var hashScratch [proofScratch][HashSize]byte
	cur, hashes := idxScratch[:0], hashScratch[:0]
	if len(idx) > proofScratch {
		cur, hashes = make([]int, 0, len(idx)), make([][HashSize]byte, 0, len(idx))
	}
	for i, v := range idx {
		if len(leafHashes[i]) != HashSize {
			return fmt.Errorf("%w: leaf hash %d bytes", ErrMalformed, len(leafHashes[i]))
		}
		cur = append(cur, int(v))
		hashes = append(hashes, [HashSize]byte(leafHashes[i]))
	}
	for size := padded; size > 1; size /= 2 {
		// In place: the j-th parent is written after its children, at
		// positions >= j, have been read.
		j := 0
		for i := 0; i < len(cur); j++ {
			a := cur[i]
			var l, r []byte
			if a%2 == 0 && i+1 < len(cur) && cur[i+1] == a+1 {
				l, r = hashes[i][:], hashes[i+1][:]
				i += 2
			} else {
				if len(proof) < HashSize {
					return fmt.Errorf("%w: multiproof truncated", ErrMalformed)
				}
				sib := proof[:HashSize]
				proof = proof[HashSize:]
				if a%2 == 0 {
					l, r = hashes[i][:], sib
				} else {
					l, r = sib, hashes[i][:]
				}
				i++
			}
			cur[j], hashes[j] = a/2, hashNode(l, r)
		}
		cur, hashes = cur[:j], hashes[:j]
	}
	if len(proof) != 0 {
		return fmt.Errorf("%w: %d unused multiproof bytes", ErrMalformed, len(proof))
	}
	if hashes[0] != root {
		return ErrBadSignature
	}
	return nil
}
