package wire

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"groupkey/internal/keycrypt"
)

// paddedReference builds the item tree the way its construction is
// defined: the leaf level padded with all-zero hashes to the next power of
// two, and every level hashed in full. levels[l] holds level l's nodes.
func paddedReference(n int, leaf func(i int) []byte) [][]byte {
	padded := 1
	for padded < n {
		padded <<= 1
	}
	lvl := make([]byte, padded*HashSize)
	for i := 0; i < n; i++ {
		h := sha256.New()
		h.Write([]byte{leafPrefix})
		h.Write(leaf(i))
		h.Sum(lvl[i*HashSize : i*HashSize])
	}
	levels := [][]byte{lvl}
	for size := padded; size > 1; size /= 2 {
		cur := levels[len(levels)-1]
		next := make([]byte, size/2*HashSize)
		for i := 0; i < size/2; i++ {
			h := sha256.New()
			h.Write([]byte{nodePrefix})
			h.Write(cur[2*i*HashSize : (2*i+2)*HashSize])
			h.Sum(next[i*HashSize : i*HashSize])
		}
		levels = append(levels, next)
	}
	return levels
}

// refProof is the multiproof walk over the padded reference.
func refProof(levels [][]byte, idx []uint32) []byte {
	var proof []byte
	cur := make([]int, len(idx))
	for i, v := range idx {
		cur[i] = int(v)
	}
	for l := 0; l < len(levels)-1; l++ {
		var next []int
		for i := 0; i < len(cur); {
			a := cur[i]
			if a%2 == 0 && i+1 < len(cur) && cur[i+1] == a+1 {
				i += 2
			} else {
				proof = append(proof, levels[l][(a^1)*HashSize:(a^1+1)*HashSize]...)
				i++
			}
			next = append(next, a/2)
		}
		cur = next
	}
	return proof
}

// TestItemTreeMatchesPaddedReference holds the tree, which stores only the
// nodes over real leaves, to the padded construction: the root, every node
// of every level (padding included), and the multiproof and its size for
// single leaves at both edges, the last leaves, random subsets and all
// leaves.
func TestItemTreeMatchesPaddedReference(t *testing.T) {
	type shape struct{ n, leafSize int }
	var shapes []shape
	for _, n := range []int{1, 2, 3, 4, 5, 255, 256, 257, 1023, 1024, 1025, 4134, 6375, 8192, 8193} {
		shapes = append(shapes, shape{n, RekeyItemSize})
	}
	// Leaves longer and shorter than one item take the other hashing path.
	shapes = append(shapes, shape{5, 3*RekeyItemSize + 1}, shape{6, 10})
	rnd := rand.New(rand.NewSource(3))
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("n=%d/leaf=%d", sh.n, sh.leafSize), func(t *testing.T) {
			n := sh.n
			buf := make([]byte, n*sh.leafSize)
			if _, err := keycrypt.NewDeterministicReader(uint64(n)).Read(buf); err != nil {
				t.Fatal(err)
			}
			leaf := func(i int) []byte { return buf[i*sh.leafSize : (i+1)*sh.leafSize] }
			ref := paddedReference(n, leaf)
			tree := NewItemTree(n, leaf)
			if got, want := tree.Root(), ref[len(ref)-1]; !bytes.Equal(got[:], want) {
				t.Fatalf("root %x, padded reference %x", got, want)
			}
			if len(tree.levels) != len(ref) {
				t.Fatalf("%d levels, padded reference %d", len(tree.levels), len(ref))
			}
			for l, lvl := range ref {
				for i := 0; i < len(lvl)/HashSize; i++ {
					if got := tree.node(l, i); !bytes.Equal(got, lvl[i*HashSize:(i+1)*HashSize]) {
						t.Fatalf("node (%d, %d) differs from the padded reference", l, i)
					}
				}
			}
			all := make([]uint32, n)
			for i := range all {
				all[i] = uint32(i)
			}
			subsets := [][]uint32{{0}, {uint32(n - 1)}, all[max(0, n-3):], all}
			for trial := 0; trial < 6; trial++ {
				var idx []uint32
				for i := 0; i < n; i++ {
					if rnd.Intn(1+n/8) == 0 {
						idx = append(idx, uint32(i))
					}
				}
				if len(idx) > 0 {
					subsets = append(subsets, idx)
				}
			}
			for _, idx := range subsets {
				want := refProof(ref, idx)
				proof, count := tree.AppendProof(nil, idx)
				if !bytes.Equal(proof, want) || count*HashSize != len(want) {
					t.Fatalf("%d indexes from %d: proof of %d hashes differs from the padded reference's %d", len(idx), idx[0], count, len(want)/HashSize)
				}
				if got := tree.ProofSize(idx); got != len(want) {
					t.Fatalf("%d indexes from %d: ProofSize %d, padded reference %d", len(idx), idx[0], got, len(want))
				}
				hashes := make([][]byte, len(idx))
				for i, v := range idx {
					hashes[i] = ref[0][v*HashSize : (v+1)*HashSize]
				}
				if err := VerifyItemProof(n, idx, hashes, proof, tree.Root()); err != nil {
					t.Fatalf("%d indexes from %d: %v", len(idx), idx[0], err)
				}
			}
		})
	}
}

// TestVerifyItemProofAllocsNothingForAPath: a member checking its
// path-sized item set against the root allocates nothing.
func TestVerifyItemProofAllocsNothingForAPath(t *testing.T) {
	const n = 4134
	buf, _ := testEpochItems(t, 16)
	leaf := func(i int) []byte { return buf[(i%16)*RekeyItemSize : (i%16+1)*RekeyItemSize] }
	tree := NewItemTree(n, leaf)
	root := tree.Root()
	idx := []uint32{3, 4, 700, 701, 2050, 3333, 4100, 4133}
	proof, _ := tree.AppendProof(nil, idx)
	hashes := make([][]byte, len(idx))
	for i, v := range idx {
		hashes[i] = HashRekeyItem(leaf(int(v)))
	}
	got := testing.AllocsPerRun(100, func() {
		if err := VerifyItemProof(n, idx, hashes, proof, root); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("VerifyItemProof of %d indexes allocates %.1f objects/op, want 0", len(idx), got)
	}
}
