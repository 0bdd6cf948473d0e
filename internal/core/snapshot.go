package core

import (
	"errors"
	"fmt"
	"math"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/snapcodec"
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
	w := snapcodec.NewWriter(oneTreeSnapMagic)
	w.U64(s.epoch)
	writeCounters(w, &s.statCounters)
	w.Blob(treeBlob)
	return w.Bytes(), nil
}

// RestoreOneTree rebuilds a one-keytree scheme from a snapshot.
func RestoreOneTree(snapshot []byte, opts ...Option) (*OneTree, error) {
	r, o, err := openSnap(snapshot, oneTreeSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &OneTree{epoch: r.U64()}
	readCounters(r, &s.statCounters)
	treeBlob := r.Blob()
	if err := r.Close(); err != nil {
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
	w := snapcodec.NewWriter(naiveSnapMagic)
	w.U64(s.epoch)
	writeCounters(w, &s.statCounters)
	w.Key(s.dek)
	w.U64(uint64(s.nextID))
	writeMemberMap(w, s.members, w.Key)
	return w.Bytes(), nil
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
		wrapper: keycrypt.NewWrapper(),
	}
	s.epoch = r.U64()
	readCounters(r, &s.statCounters)
	s.dek = r.Key()
	s.nextID = keycrypt.KeyID(r.U64())
	readMemberMap(r, s.members, r.Key)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- TwoPartition ---

// Snapshot implements Scheme: both partitions (QT queue keys or S tree,
// plus the L tree), the migration clocks that decide who moves to L, the
// group key and the epoch — everything ProcessBatch's behaviour depends on.
func (s *TwoPartition) Snapshot() ([]byte, error) {
	w := snapcodec.NewWriter(twoPartSnapMagic)
	w.U8(uint8(s.mode))
	w.U32(uint32(s.degree))
	w.U64(s.sPeriod)
	w.U64(s.epoch)
	writeCounters(w, &s.statCounters)
	w.Key(s.dek)
	w.U64(uint64(s.nextQueueID))

	// QT queue (member → individual key), then the migration clocks
	// (member → join epoch).
	writeMemberMap(w, s.queue, w.Key)
	writeMemberMap(w, s.joinEpoch, w.U64)
	// Partition trees. QT has no S tree: its blob is empty.
	var sblob []byte
	if s.stree != nil {
		var err error
		if sblob, err = s.stree.Snapshot(); err != nil {
			return nil, err
		}
	}
	lblob, err := s.ltree.Snapshot()
	if err != nil {
		return nil, err
	}
	w.Blob(sblob)
	w.Blob(lblob)
	return w.Bytes(), nil
}

// RestoreTwoPartition rebuilds a two-partition scheme from a snapshot.
func RestoreTwoPartition(snapshot []byte, opts ...Option) (*TwoPartition, error) {
	r, o, err := openSnap(snapshot, twoPartSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &TwoPartition{
		mode:      PartitionMode(r.U8()),
		gen:       keycrypt.Generator{Rand: o.rand},
		queue:     make(map[keytree.MemberID]keycrypt.Key),
		queueWrap: keycrypt.NewWrapper(),
		joinEpoch: make(map[keytree.MemberID]uint64),
		parallel:  o.treeConcurrency(),
	}
	if s.mode != QT && s.mode != TT && s.mode != PT {
		return nil, fmt.Errorf("%w: mode %d", ErrBadSnapshot, s.mode)
	}
	s.degree = int(r.U32())
	if s.degree < 2 || s.degree > 255 {
		return nil, fmt.Errorf("%w: degree %d", ErrBadSnapshot, s.degree)
	}
	s.sPeriod = r.U64()
	s.epoch = r.U64()
	readCounters(r, &s.statCounters)
	s.dek = r.Key()
	s.nextQueueID = keycrypt.KeyID(r.U64())

	readMemberMap(r, s.queue, r.Key)
	readMemberMap(r, s.joinEpoch, r.U64)
	sBlob := r.Blob()
	lBlob := r.Blob()
	if err := r.Close(); err != nil {
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
	w := snapcodec.NewWriter(multiTreeSnapMagic)
	w.U8(uint8(s.kind))
	w.U64(s.epoch)
	writeCounters(w, &s.statCounters)
	w.Key(s.dek)
	w.U64(s.rrNext)
	w.U32(uint32(len(s.bounds)))
	for _, b := range s.bounds {
		w.U64(math.Float64bits(b))
	}
	w.U32(uint32(len(s.trees)))
	for _, tr := range s.trees {
		blob, err := tr.Snapshot()
		if err != nil {
			return nil, err
		}
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// RestoreMultiTree rebuilds a loss-homogenized or random multi-tree scheme
// from a snapshot.
func RestoreMultiTree(snapshot []byte, opts ...Option) (*MultiTree, error) {
	r, o, err := openSnap(snapshot, multiTreeSnapMagic, opts)
	if err != nil {
		return nil, err
	}
	s := &MultiTree{
		kind:     multiTreeKind(r.U8()),
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
	s.epoch = r.U64()
	readCounters(r, &s.statCounters)
	s.dek = r.Key()
	s.rrNext = r.U64()
	nb := int(r.U32())
	if nb > 1<<16 {
		return nil, fmt.Errorf("%w: %d loss bounds", ErrBadSnapshot, nb)
	}
	for i := 0; i < nb && r.Err() == nil; i++ {
		s.bounds = append(s.bounds, math.Float64frombits(r.U64()))
	}
	nt := int(r.U32())
	if r.Err() == nil && (nt < 1 || nt > 1<<16) {
		return nil, fmt.Errorf("%w: %d trees", ErrBadSnapshot, nt)
	}
	var blobs [][]byte
	for i := 0; i < nt && r.Err() == nil; i++ {
		blobs = append(blobs, r.Blob())
	}
	if err := r.Close(); err != nil {
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

func writeCounters(w *snapcodec.Writer, c *statCounters) {
	w.U64(c.rekeys)
	w.U64(c.keysEncrypted)
}

func readCounters(r *snapcodec.Reader, c *statCounters) {
	c.rekeys = r.U64()
	c.keysEncrypted = r.U64()
}

// writeMemberMap writes a member-keyed map: count(4), then member(8) and
// put's value in ascending member order.
func writeMemberMap[V any](w *snapcodec.Writer, m map[keytree.MemberID]V, put func(V)) {
	w.U32(uint32(len(m)))
	for _, id := range sortedMembers(m) {
		w.U64(uint64(id))
		put(m[id])
	}
}

// readMemberMap reads what writeMemberMap wrote into m, rejecting member
// 0 and duplicates.
func readMemberMap[V any](r *snapcodec.Reader, m map[keytree.MemberID]V, get func() V) {
	for n := r.U32(); n > 0 && r.Err() == nil; n-- {
		id, v := keytree.MemberID(r.U64()), get()
		if _, dup := m[id]; id == 0 || dup {
			r.Fail("zero or duplicate member %d", id)
		}
		m[id] = v
	}
}

// openSnap resolves options and positions a reader after the magic.
func openSnap(snapshot []byte, magic string, opts []Option) (*snapcodec.Reader, options, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, o, err
	}
	r := snapcodec.NewReader(snapshot, magic, ErrBadSnapshot)
	return r, o, r.Err()
}
