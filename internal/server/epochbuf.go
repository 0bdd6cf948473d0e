package server

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

// Encode-once sparse fan-out: broadcastRekeyLocked used to serialize and
// sign the full rekey payload once, then hand every one of N clients a
// reference to that full blob — N·I items on the wire for a payload of I
// items of which each member needs only its O(log N) path. The epoch
// buffer inverts that: the items are encoded exactly once into one
// immutable buffer, the Merkle root over them is signed once, and each
// client's queue gets a tiny {buffer, indexes} descriptor.
// The writer goroutines then assemble per-member sparse frames outside the
// server lock, emitting item bytes as vectored ranges over the shared
// buffer — no per-member payload copies, no per-member signatures.
//
// The buffer is refcounted (enqueue retains, the writer releases after the
// frame is written or dropped) so its item buffer and index slabs can
// return to a pool the moment the last in-flight frame is done, instead of
// churning the GC on every epoch at scale.
//
// Sealing costs what the connected audience and the item count cost, not
// the group size: items carry no receiver lists, and each connected
// member's indexes come from its key path (wire.ScopedIndex). A member
// absent from that index (it resumed after the seal) is sent every item
// (allItems) — the same sparse frame, one multiproof.

// epochBuffer is one epoch's rekey payload, sealed once, shared by every
// outbound frame of that epoch. Immutable after newEpochBuffer except for
// the refcount.
type epochBuffer struct {
	epoch   uint64
	nItems  int
	itemBuf []byte // nItems × wire.RekeyItemSize concatenated encodings
	tree    *wire.ItemTree
	root    [wire.HashSize]byte
	rootSig []byte
	// index holds, for each member connected at seal time, the ascending
	// item indexes it needs. A member absent from it connected later and is
	// sent every item (allItems).
	index *wire.ScopedIndex

	refs atomic.Int64
}

// itemBufPool and indexPool recycle epoch item buffers and index slabs
// between epochs.
var (
	itemBufPool = sync.Pool{}
	indexPool   = sync.Pool{New: func() any { return new(wire.ScopedIndex) }}
)

// newEpochBuffer seals one rekey for the connected members (ascending
// IDs): encode every item once, build and sign the item tree, and index
// which items each connected member needs by its key path (the scheme's
// PathIDs; unused when nobody is connected). The caller owns the initial
// reference.
func newEpochBuffer(priv ed25519.PrivateKey, rekey *core.Rekey, connected []keytree.MemberID, path wire.KeyPath) (*epochBuffer, error) {
	items := rekey.AllItems()
	if len(items) > wire.MaxSparseIndexes {
		// The all-items frame resumers and late pullers get must fit.
		return nil, fmt.Errorf("%w: %d items", wire.ErrFrameTooLarge, len(items))
	}
	eb := &epochBuffer{epoch: rekey.Epoch, nItems: len(items)}

	buf, _ := itemBufPool.Get().([]byte)
	buf = buf[:0]
	var err error
	for _, it := range items {
		if buf, err = wire.AppendRekeyItem(buf, it); err != nil {
			return nil, err
		}
	}
	eb.itemBuf = buf
	eb.tree = wire.NewItemTree(len(items), func(i int) []byte {
		return buf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
	})
	eb.root = eb.tree.Root()
	eb.rootSig = wire.SignSparse(priv, rekey.Epoch, uint32(len(items)), eb.root)
	eb.index = indexPool.Get().(*wire.ScopedIndex)
	eb.index.Build(items, connected, path)

	eb.refs.Store(1)
	return eb, nil
}

// allItems returns the indexes of every item, for a member the seal did
// not index.
func (eb *epochBuffer) allItems() []uint32 {
	idx := make([]uint32, eb.nItems)
	for i := range idx {
		idx[i] = uint32(i)
	}
	return idx
}

// item returns item i's encoded bytes as a view into the shared buffer.
func (eb *epochBuffer) item(i int) []byte {
	return eb.itemBuf[i*wire.RekeyItemSize : (i+1)*wire.RekeyItemSize]
}

// sparseSize is the exact MsgRekeySparse payload size for idx, computable
// under the server lock without hashing (broadcast byte accounting).
func (eb *epochBuffer) sparseSize(idx []uint32) int {
	return wire.SparseFrameSize(eb.tree, idx)
}

// retain takes one additional reference.
func (eb *epochBuffer) retain() { eb.refs.Add(1) }

// release drops one reference; the last one returns the item buffer and
// the index slabs (which queued frames' idx slices alias until then) to
// their pools. The tree (which aliases nothing) is left to the GC.
func (eb *epochBuffer) release() {
	if eb.refs.Add(-1) != 0 {
		return
	}
	if cap(eb.itemBuf) > 0 {
		itemBufPool.Put(eb.itemBuf[:0]) //nolint:staticcheck // slice, not pointer: the backing array is what we recycle
	}
	eb.itemBuf = nil
	indexPool.Put(eb.index)
	eb.index = nil
}

// appendSparseFrame appends the complete sparse payload for idx to dst —
// the convenience (single-buffer) form used by the TCP repair path; the
// writer hot path uses appendSparseHead plus vectored item ranges instead.
func (eb *epochBuffer) appendSparseFrame(dst []byte, idx []uint32) []byte {
	dst = wire.AppendSparseHead(dst, eb.epoch, eb.tree, eb.root, eb.rootSig, idx)
	for _, v := range idx {
		dst = append(dst, eb.item(int(v))...)
	}
	return dst
}

// itemRanges appends the byte ranges of the (ascending) item indexes as
// views into the shared item buffer, coalescing runs of consecutive
// indexes into single ranges so the vectored write stays short.
func (eb *epochBuffer) itemRanges(dst [][]byte, idx []uint32) [][]byte {
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[j-1]+1 {
			j++
		}
		dst = append(dst, eb.itemBuf[int(idx[i])*wire.RekeyItemSize:int(idx[j-1]+1)*wire.RekeyItemSize])
		i = j
	}
	return dst
}
