package keytree

import (
	"errors"
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/snapcodec"
)

// Snapshot serializes the complete key-tree state — structure, key
// material, ID allocator, counters and the planner setting — so a key
// server can persist its state across restarts without forcing a
// whole-group rekey.
//
// The snapshot contains every secret in the tree. Callers own
// encryption-at-rest (e.g. seal the blob under a KMS-held master key).
//
// Layout (snapcodec): "LKHT" | version(4) | degree(4) | planner(1)
// | header | nodes in pre-order, where header is nextID(8), the five
// lifetime counters (8 each) and hasRoot(4), shared with OFT snapshots,
// and a node is key record | member(8) | childCount(1).

// ErrBadSnapshot reports a malformed or truncated snapshot.
var ErrBadSnapshot = errors.New("keytree: malformed snapshot")

// snapshot format constants; any other version is rejected.
const (
	snapMagic   = "LKHT"
	snapVersion = 2
)

// writeHeader writes the section Tree and OFT snapshots share.
func writeHeader(w *snapcodec.Writer, nextID keycrypt.KeyID, s Stats, hasRoot bool) {
	w.U64(uint64(nextID))
	for _, v := range []int{s.Joins, s.Departures, s.KeysWrapped, s.KeysRefreshed, s.Rekeys} {
		w.U64(uint64(v))
	}
	if hasRoot {
		w.U32(1)
	} else {
		w.U32(0)
	}
}

// readHeader reads the section writeHeader wrote.
func readHeader(r *snapcodec.Reader) (nextID keycrypt.KeyID, s Stats, hasRoot bool) {
	nextID = keycrypt.KeyID(r.U64())
	for _, v := range []*int{&s.Joins, &s.Departures, &s.KeysWrapped, &s.KeysRefreshed, &s.Rekeys} {
		*v = int(r.U64())
	}
	return nextID, s, r.U32() != 0
}

// restoreMember checks a restored node's member field against its shape
// (a leaf names a member no other leaf has, an interior node names none)
// and registers leaves in the tree's leaf map. It also surfaces the
// reader's error, so callers check once per node.
func restoreMember[N any](r *snapcodec.Reader, leaves map[MemberID]N, n N, m MemberID, leaf bool) error {
	if err := r.Err(); err != nil {
		return err
	}
	if !leaf {
		if m != 0 {
			return fmt.Errorf("%w: interior node carries member %d", ErrBadSnapshot, m)
		}
		return nil
	}
	if m == 0 {
		return fmt.Errorf("%w: leaf without member", ErrBadSnapshot)
	}
	if _, dup := leaves[m]; dup {
		return fmt.Errorf("%w: duplicate member %d", ErrBadSnapshot, m)
	}
	leaves[m] = n
	return nil
}

// Snapshot serializes the tree. A node's fan-out is one byte, so trees
// of degree above 255 have no snapshot.
func (t *Tree) Snapshot() ([]byte, error) {
	if t.degree > 255 {
		return nil, fmt.Errorf("keytree: degree %d unserializable", t.degree)
	}
	w := snapcodec.NewWriter(snapMagic)
	w.U32(snapVersion)
	w.U32(uint32(t.degree))
	w.Bool(t.planner)
	writeHeader(w, t.nextID, t.stats, t.root != nil)
	var write func(n *Node)
	write = func(n *Node) {
		w.Key(n.key)
		w.U64(uint64(n.member))
		w.U8(uint8(len(n.children)))
		for _, c := range n.children {
			write(c)
		}
	}
	if t.root != nil {
		write(t.root)
	}
	return w.Bytes(), nil
}

// Restore rebuilds a tree from a snapshot, planner setting included.
// Options (entropy source, wrap workers) apply on top of the restored
// state; WithFirstKeyID and WithPlanner are ignored in favor of the
// snapshot's allocator position and planner flag.
func Restore(snapshot []byte, opts ...Option) (*Tree, error) {
	r := snapcodec.NewReader(snapshot, snapMagic, ErrBadSnapshot)
	r.Version(snapVersion)
	degree := int(r.U32())
	planner := r.Bool()
	nextID, stats, hasRoot := readHeader(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if degree < 2 || degree > 255 {
		return nil, fmt.Errorf("%w: degree %d", ErrBadSnapshot, degree)
	}
	t, err := New(degree, opts...)
	if err != nil {
		return nil, err
	}
	t.planner, t.nextID, t.stats = planner, nextID, stats

	var read func(depth int) (*Node, error)
	read = func(depth int) (*Node, error) {
		if depth > 64 {
			return nil, fmt.Errorf("%w: tree deeper than 64 levels", ErrBadSnapshot)
		}
		n := &Node{key: r.Key(), member: MemberID(r.U64())}
		childCount := int(r.U8())
		if err := restoreMember(r, t.leaves, n, n.member, childCount == 0); err != nil {
			return nil, err
		}
		if childCount == 0 {
			n.leaves = 1
			return n, nil
		}
		if childCount > degree || childCount < 2 {
			return nil, fmt.Errorf("%w: fan-out %d outside [2,%d]", ErrBadSnapshot, childCount, degree)
		}
		for i := 0; i < childCount; i++ {
			c, err := read(depth + 1)
			if err != nil {
				return nil, err
			}
			c.parent = n
			n.children = append(n.children, c)
			n.leaves += c.leaves
		}
		return n, nil
	}
	if hasRoot {
		if t.root, err = read(0); err != nil {
			return nil, err
		}
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return t, nil
}
