package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Scheme snapshots: every scheme serializes its complete state (key
// material, membership structure, epoch, counters) into a self-describing
// blob so a key server restart does not force the O(N) whole-group rekey
// the paper's tree schemes exist to avoid. Blobs contain every group
// secret; encryption at rest is the caller's job (internal/store seals
// them with AES-GCM under a key-file master key).

// ErrBadSnapshot reports a malformed scheme snapshot.
var ErrBadSnapshot = errors.New("core: malformed snapshot")

// Snapshot format magics, one per scheme. The magic doubles as the
// dispatch tag for RestoreScheme.
const (
	oneTreeSnapMagic   = "GKS2" // GKS1 lacked the rekey counters
	naiveSnapMagic     = "GKN1"
	twoPartSnapMagic   = "GKP1"
	multiTreeSnapMagic = "GKM1"
)

// RestoreScheme rebuilds a scheme of any kind from a snapshot blob,
// dispatching on the format magic. Options (entropy source, rekey workers)
// apply on top of the restored state.
func RestoreScheme(snapshot []byte, opts ...Option) (Scheme, error) {
	if len(snapshot) < 4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(snapshot))
	}
	switch string(snapshot[:4]) {
	case oneTreeSnapMagic:
		return RestoreOneTree(snapshot, opts...)
	case naiveSnapMagic:
		return RestoreNaive(snapshot, opts...)
	case twoPartSnapMagic:
		return RestoreTwoPartition(snapshot, opts...)
	case multiTreeSnapMagic:
		return RestoreMultiTree(snapshot, opts...)
	default:
		return nil, fmt.Errorf("%w: unknown magic %q", ErrBadSnapshot, snapshot[:4])
	}
}

// --- OneTree ---

// Snapshot implements Scheme: epoch, counters, and the full key tree.
func (s *OneTree) Snapshot() ([]byte, error) {
	treeBlob, err := s.tree.Snapshot()
	if err != nil {
		return nil, err
	}
	w := newSnapWriter(oneTreeSnapMagic)
	w.u64(s.epoch)
	w.counters(&s.statCounters)
	w.blob(treeBlob)
	return w.bytes(), nil
}

// RestoreOneTree rebuilds a one-keytree scheme from a snapshot.
func RestoreOneTree(snapshot []byte, opts ...Option) (*OneTree, error) {
	r, o, err := openSnap(snapshot, oneTreeSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &OneTree{epoch: r.u64()}
	r.counters(&s.statCounters)
	treeBlob := r.blob()
	if err := r.close(); err != nil {
		return nil, err
	}
	s.tree, err = keytree.Restore(treeBlob, o.treeOptions(0)...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return s, nil
}

// --- Naive ---

// Snapshot implements Scheme.
func (s *Naive) Snapshot() ([]byte, error) {
	w := newSnapWriter(naiveSnapMagic)
	w.u64(s.epoch)
	w.counters(&s.statCounters)
	w.key(s.dek)
	w.u64(uint64(s.nextID))
	w.u32(uint32(len(s.members)))
	for _, m := range sortedMembers(s.members) {
		w.u64(uint64(m))
		w.key(s.members[m])
	}
	return w.bytes(), nil
}

// RestoreNaive rebuilds the unicast baseline from a snapshot.
func RestoreNaive(snapshot []byte, opts ...Option) (*Naive, error) {
	r, o, err := openSnap(snapshot, naiveSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &Naive{
		gen:     keycrypt.Generator{Rand: o.rand},
		members: make(map[keytree.MemberID]keycrypt.Key),
	}
	s.epoch = r.u64()
	r.counters(&s.statCounters)
	s.dek = r.key()
	s.nextID = keycrypt.KeyID(r.u64())
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		m := keytree.MemberID(r.u64())
		k := r.key()
		if m == 0 {
			return nil, fmt.Errorf("%w: zero member", ErrBadSnapshot)
		}
		if _, dup := s.members[m]; dup {
			return nil, fmt.Errorf("%w: duplicate member %d", ErrBadSnapshot, m)
		}
		s.members[m] = k
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- TwoPartition ---

// Snapshot implements Scheme: both partitions (QT queue keys or S tree,
// plus the L tree), the migration clocks that decide who moves to L, the
// group key and the epoch — everything ProcessBatch's behaviour depends on.
func (s *TwoPartition) Snapshot() ([]byte, error) {
	w := newSnapWriter(twoPartSnapMagic)
	w.u8(uint8(s.mode))
	w.u32(uint32(s.degree))
	w.u64(s.sPeriod)
	w.u64(s.epoch)
	w.counters(&s.statCounters)
	w.key(s.dek)
	w.u64(uint64(s.nextQueueID))

	// QT queue: member → individual key.
	w.u32(uint32(len(s.queue)))
	for _, m := range sortedMembers(s.queue) {
		w.u64(uint64(m))
		w.key(s.queue[m])
	}
	// Migration clocks: member → join epoch.
	w.u32(uint32(len(s.joinEpoch)))
	for _, m := range sortedMembers(s.joinEpoch) {
		w.u64(uint64(m))
		w.u64(s.joinEpoch[m])
	}
	// Partition trees. QT has no S tree.
	if s.stree != nil {
		blob, err := s.stree.Snapshot()
		if err != nil {
			return nil, err
		}
		w.blob(blob)
	} else {
		w.u32(0)
	}
	lblob, err := s.ltree.Snapshot()
	if err != nil {
		return nil, err
	}
	w.blob(lblob)
	return w.bytes(), nil
}

// RestoreTwoPartition rebuilds a two-partition scheme from a snapshot.
func RestoreTwoPartition(snapshot []byte, opts ...Option) (*TwoPartition, error) {
	r, o, err := openSnap(snapshot, twoPartSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &TwoPartition{
		mode:      PartitionMode(r.u8()),
		gen:       keycrypt.Generator{Rand: o.rand},
		queue:     make(map[keytree.MemberID]keycrypt.Key),
		joinEpoch: make(map[keytree.MemberID]uint64),
		parallel:  o.treeConcurrency(),
	}
	if s.mode != QT && s.mode != TT && s.mode != PT {
		return nil, fmt.Errorf("%w: mode %d", ErrBadSnapshot, s.mode)
	}
	s.degree = int(r.u32())
	if s.degree < 2 || s.degree > 255 {
		return nil, fmt.Errorf("%w: degree %d", ErrBadSnapshot, s.degree)
	}
	s.sPeriod = r.u64()
	s.epoch = r.u64()
	r.counters(&s.statCounters)
	s.dek = r.key()
	s.nextQueueID = keycrypt.KeyID(r.u64())

	nq := int(r.u32())
	for i := 0; i < nq && r.err == nil; i++ {
		m := keytree.MemberID(r.u64())
		k := r.key()
		if m == 0 {
			return nil, fmt.Errorf("%w: zero queue member", ErrBadSnapshot)
		}
		if _, dup := s.queue[m]; dup {
			return nil, fmt.Errorf("%w: duplicate queue member %d", ErrBadSnapshot, m)
		}
		s.queue[m] = k
	}
	nj := int(r.u32())
	for i := 0; i < nj && r.err == nil; i++ {
		m := keytree.MemberID(r.u64())
		e := r.u64()
		if m == 0 {
			return nil, fmt.Errorf("%w: zero clock member", ErrBadSnapshot)
		}
		if _, dup := s.joinEpoch[m]; dup {
			return nil, fmt.Errorf("%w: duplicate clock member %d", ErrBadSnapshot, m)
		}
		s.joinEpoch[m] = e
	}
	sBlob := r.blob()
	lBlob := r.blob()
	if err := r.close(); err != nil {
		return nil, err
	}
	treeOpts := o.treeOptions(0)
	if len(sBlob) > 0 {
		s.stree, err = keytree.Restore(sBlob, treeOpts...)
		if err != nil {
			return nil, fmt.Errorf("%w: S tree: %v", ErrBadSnapshot, err)
		}
	} else if s.mode != QT {
		return nil, fmt.Errorf("%w: mode %v without S tree", ErrBadSnapshot, s.mode)
	}
	s.ltree, err = keytree.Restore(lBlob, treeOpts...)
	if err != nil {
		return nil, fmt.Errorf("%w: L tree: %v", ErrBadSnapshot, err)
	}
	return s, nil
}

// --- MultiTree ---

// Snapshot implements Scheme: assignment policy (loss bounds or the
// round-robin cursor), the group key, and one blob per class tree. The
// member→tree map is not serialized — each tree already knows its members.
func (s *MultiTree) Snapshot() ([]byte, error) {
	w := newSnapWriter(multiTreeSnapMagic)
	w.u8(uint8(s.kind))
	w.u64(s.epoch)
	w.counters(&s.statCounters)
	w.key(s.dek)
	w.u64(s.rrNext)
	w.u32(uint32(len(s.bounds)))
	for _, b := range s.bounds {
		w.u64(math.Float64bits(b))
	}
	w.u32(uint32(len(s.trees)))
	for _, tr := range s.trees {
		blob, err := tr.Snapshot()
		if err != nil {
			return nil, err
		}
		w.blob(blob)
	}
	return w.bytes(), nil
}

// RestoreMultiTree rebuilds a loss-homogenized or random multi-tree scheme
// from a snapshot.
func RestoreMultiTree(snapshot []byte, opts ...Option) (*MultiTree, error) {
	r, o, err := openSnap(snapshot, multiTreeSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &MultiTree{
		kind:     multiTreeKind(r.u8()),
		home:     make(map[keytree.MemberID]int),
		gen:      keycrypt.Generator{Rand: o.rand},
		parallel: o.treeConcurrency(),
	}
	switch s.kind {
	case assignLossClass:
		s.name = "loss-homogenized"
	case assignRoundRobin:
		s.name = "random-multitree"
	default:
		return nil, fmt.Errorf("%w: assigner kind %d", ErrBadSnapshot, s.kind)
	}
	s.epoch = r.u64()
	r.counters(&s.statCounters)
	s.dek = r.key()
	s.rrNext = r.u64()
	nb := int(r.u32())
	if nb > 1<<16 {
		return nil, fmt.Errorf("%w: %d loss bounds", ErrBadSnapshot, nb)
	}
	for i := 0; i < nb && r.err == nil; i++ {
		s.bounds = append(s.bounds, math.Float64frombits(r.u64()))
	}
	nt := int(r.u32())
	if r.err == nil && (nt < 1 || nt > 1<<16) {
		return nil, fmt.Errorf("%w: %d trees", ErrBadSnapshot, nt)
	}
	var blobs [][]byte
	for i := 0; i < nt && r.err == nil; i++ {
		blobs = append(blobs, r.blob())
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	if s.kind == assignLossClass && len(blobs) != len(s.bounds)+1 {
		return nil, fmt.Errorf("%w: %d bounds but %d trees", ErrBadSnapshot, len(s.bounds), len(blobs))
	}
	for i, blob := range blobs {
		tr, err := keytree.Restore(blob, o.treeOptions(0)...)
		if err != nil {
			return nil, fmt.Errorf("%w: tree %d: %v", ErrBadSnapshot, i, err)
		}
		for _, m := range tr.MembersView() {
			if prev, dup := s.home[m]; dup {
				return nil, fmt.Errorf("%w: member %d in trees %d and %d", ErrBadSnapshot, m, prev, i)
			}
			s.home[m] = i
		}
		s.trees = append(s.trees, tr)
	}
	return s, nil
}

// --- codec helpers ---

// snapWriter builds a snapshot blob: magic then big-endian fields.
type snapWriter struct{ buf bytes.Buffer }

func newSnapWriter(magic string) *snapWriter {
	w := &snapWriter{}
	w.buf.WriteString(magic)
	return w
}

func (w *snapWriter) u8(v uint8) { w.buf.WriteByte(v) }

func (w *snapWriter) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf.Write(b[:])
}

func (w *snapWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// key writes one keycrypt.Key record: id(8) version(4) material(32).
func (w *snapWriter) key(k keycrypt.Key) {
	w.u64(uint64(k.ID))
	w.u32(uint32(k.Version))
	w.buf.Write(k.Bytes())
}

func (w *snapWriter) counters(c *statCounters) {
	w.u64(c.rekeys)
	w.u64(c.keysEncrypted)
}

// blob writes a length-prefixed byte blob.
func (w *snapWriter) blob(b []byte) {
	w.u32(uint32(len(b)))
	w.buf.Write(b)
}

func (w *snapWriter) bytes() []byte { return w.buf.Bytes() }

// snapReader is a bounds-checked sequential reader over a snapshot blob.
type snapReader struct {
	data []byte
	off  int
	err  error
}

// openSnap checks the magic, resolves options and positions a reader after
// the magic.
func openSnap(snapshot []byte, magic string, opts []Option) (*snapReader, options, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, o, err
	}
	if len(snapshot) < 4 || string(snapshot[:4]) != magic {
		return nil, o, fmt.Errorf("%w: bad header", ErrBadSnapshot)
	}
	return &snapReader{data: snapshot, off: 4}, o, nil
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		r.err = ErrBadSnapshot
		// Fixed-size readers index at most a key's worth, and every result
		// is discarded once err is set: never allocate a corrupt length.
		return make([]byte, min(max(n, 0), keycrypt.KeySize))
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u8() uint8   { return r.bytes(1)[0] }
func (r *snapReader) u32() uint32 { return binary.BigEndian.Uint32(r.bytes(4)) }
func (r *snapReader) u64() uint64 { return binary.BigEndian.Uint64(r.bytes(8)) }

func (r *snapReader) key() keycrypt.Key {
	id := keycrypt.KeyID(r.u64())
	ver := keycrypt.Version(r.u32())
	material := r.bytes(keycrypt.KeySize)
	k, err := keycrypt.NewKey(id, ver, material)
	if err != nil && r.err == nil {
		r.err = err
	}
	return k
}

func (r *snapReader) counters(c *statCounters) {
	c.rekeys = r.u64()
	c.keysEncrypted = r.u64()
}

func (r *snapReader) blob() []byte {
	n := int(r.u32())
	return r.bytes(n)
}

// close verifies the whole blob was consumed without error.
func (r *snapReader) close() error {
	if r.err != nil {
		return fmt.Errorf("%w: truncated", ErrBadSnapshot)
	}
	if rest := len(r.data) - r.off; rest != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, rest)
	}
	return nil
}
