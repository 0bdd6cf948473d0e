package keytree

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/snapcodec"
)

// OFT snapshots mirror the LKH tree snapshots (snapshot.go): full server
// state for crash recovery, secrets included — encrypt at rest. Layout:
// "OFTT" | version(4) | header | nodes in pre-order, where a node is
// id(8) | secret key record | member(8) | childCount(1, 0 or 2).

const (
	oftSnapMagic   = "OFTT"
	oftSnapVersion = 1
)

// Snapshot serializes the one-way function tree.
func (t *OFT) Snapshot() ([]byte, error) {
	w := snapcodec.NewWriter(oftSnapMagic)
	w.U32(oftSnapVersion)
	writeHeader(w, t.nextID, t.stats, t.root != nil)
	var write func(n *oftNode)
	write = func(n *oftNode) {
		w.U64(uint64(n.id))
		w.Key(n.secret)
		w.U64(uint64(n.member))
		if n.isLeaf() {
			w.U8(0)
			return
		}
		w.U8(2)
		write(n.left)
		write(n.right)
	}
	if t.root != nil {
		write(t.root)
	}
	return w.Bytes(), nil
}

// RestoreOFT rebuilds an OFT from a snapshot and verifies internal
// consistency: every interior secret must equal the Mix of its children's
// blinds, so a corrupted snapshot cannot smuggle in an inconsistent tree.
func RestoreOFT(snapshot []byte, opts ...Option) (*OFT, error) {
	r := snapcodec.NewReader(snapshot, oftSnapMagic, ErrBadSnapshot)
	r.Version(oftSnapVersion)
	nextID, stats, hasRoot := readHeader(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	t, err := NewOFT(opts...)
	if err != nil {
		return nil, err
	}
	t.nextID, t.stats = nextID, stats
	var read func(depth int) (*oftNode, error)
	read = func(depth int) (*oftNode, error) {
		if depth > 64 {
			return nil, fmt.Errorf("%w: tree deeper than 64 levels", ErrBadSnapshot)
		}
		n := &oftNode{id: keycrypt.KeyID(r.U64()), secret: r.Key(), member: MemberID(r.U64())}
		kids := int(r.U8())
		if err := restoreMember(r, t.leaves, n, n.member, kids == 0); err != nil {
			return nil, err
		}
		if kids == 0 {
			n.leaves = 1
			return n, nil
		}
		if kids != 2 {
			return nil, fmt.Errorf("%w: OFT node with %d children", ErrBadSnapshot, kids)
		}
		l, err := read(depth + 1)
		if err != nil {
			return nil, err
		}
		rn, err := read(depth + 1)
		if err != nil {
			return nil, err
		}
		l.parent, rn.parent = n, n
		n.left, n.right = l, rn
		n.leaves = l.leaves + rn.leaves
		// Verify the OFT invariant: the interior secret is derivable.
		want := keycrypt.Mix(n.id, l.secret.Version+rn.secret.Version,
			keycrypt.Blind(l.secret), keycrypt.Blind(rn.secret))
		if !want.Equal(n.secret) {
			return nil, fmt.Errorf("%w: interior secret %v inconsistent with children", ErrBadSnapshot, n.id)
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
