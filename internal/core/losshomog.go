package core

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// multiTreeKeyIDBase spaces out per-tree key ID ranges.
const multiTreeKeyIDBase keycrypt.KeyID = 1 << 44

// multiTreeKind selects the member-to-tree assignment policy. The policy
// is a serializable value, not a closure, so scheme snapshots capture it
// (the round-robin cursor included) and recovery replays assignments
// identically.
type multiTreeKind uint8

const (
	// assignLossClass is the Section 4.2 policy: trees are labeled by
	// ascending loss-rate upper bounds, and a joiner goes to the first tree
	// whose bound covers its reported loss rate (the last tree catches
	// everything, including unknown rates — conservative: unknown members
	// are treated as lossy until proven otherwise).
	assignLossClass multiTreeKind = iota + 1
	// assignRoundRobin places joiners round-robin — statistically
	// equivalent to the random placement of the Fig. 6 control scheme, but
	// deterministic.
	assignRoundRobin
)

// MultiTree is a key server maintaining several key trees beneath one group
// key. Built by NewLossHomogenized it is the paper's loss-homogenized
// organization (Section 4.2); built by NewRandomMultiTree it is the
// two-random-keytree control of Fig. 6. Members never move between trees
// once placed (Section 4.2: the moving overhead would cancel the benefit).
type MultiTree struct {
	name   string
	kind   multiTreeKind
	bounds []float64 // ascending loss-rate upper bounds (assignLossClass)
	rrNext uint64    // next round-robin slot (assignRoundRobin)
	trees  []*keytree.Tree
	home   map[keytree.MemberID]int // member → tree index
	gen    keycrypt.Generator
	dek    keycrypt.Key
	epoch  uint64
	// parallel allows independent trees to rekey concurrently (only when
	// entropy comes from crypto/rand; see WithRekeyWorkers).
	parallel bool
	statCounters
}

var _ Scheme = (*MultiTree)(nil)

// NewLossHomogenized builds the Section 4 scheme with one tree per loss
// class. bounds are ascending loss-rate upper bounds; len(bounds)+1 trees
// are created. With two trees and bounds = [0.05], members reporting ≤5%
// loss go to tree 0, all others to tree 1.
func NewLossHomogenized(bounds []float64, opts ...Option) (*MultiTree, error) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("%w: loss bounds not ascending: %v", ErrBadConfig, bounds)
		}
	}
	s, err := newMultiTree("loss-homogenized", len(bounds)+1, opts...)
	if err != nil {
		return nil, err
	}
	s.kind = assignLossClass
	s.bounds = append([]float64(nil), bounds...)
	return s, nil
}

// NewRandomMultiTree builds the Fig. 6 control: trees with random member
// placement.
func NewRandomMultiTree(trees int, opts ...Option) (*MultiTree, error) {
	s, err := newMultiTree("random-multitree", trees, opts...)
	if err != nil {
		return nil, err
	}
	s.kind = assignRoundRobin
	return s, nil
}

// assignTree routes one joiner according to the scheme's policy.
func (s *MultiTree) assignTree(j Join) int {
	switch s.kind {
	case assignRoundRobin:
		i := int(s.rrNext % uint64(len(s.trees)))
		s.rrNext++
		return i
	default: // assignLossClass
		if j.Meta.LossRate < 0 {
			return len(s.trees) - 1
		}
		for i, b := range s.bounds {
			if i >= len(s.trees)-1 {
				break
			}
			if j.Meta.LossRate <= b {
				return i
			}
		}
		return len(s.trees) - 1
	}
}

func newMultiTree(name string, trees int, opts ...Option) (*MultiTree, error) {
	if trees < 1 {
		return nil, fmt.Errorf("%w: trees=%d", ErrBadConfig, trees)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	s := &MultiTree{
		name:     name,
		home:     make(map[keytree.MemberID]int),
		gen:      keycrypt.Generator{Rand: o.rand},
		parallel: o.treeConcurrency(),
	}
	dek, err := s.gen.New(o.keyIDBase+dekKeyID, 0)
	if err != nil {
		return nil, err
	}
	s.dek = dek
	for i := 0; i < trees; i++ {
		tr, err := keytree.New(o.degree,
			o.treeOptions(o.keyIDBase+multiTreeKeyIDBase*keycrypt.KeyID(i+1))...)
		if err != nil {
			return nil, err
		}
		s.trees = append(s.trees, tr)
	}
	return s, nil
}

// Name implements Scheme.
func (s *MultiTree) Name() string { return s.name }

// TreeCount returns the number of key trees.
func (s *MultiTree) TreeCount() int { return len(s.trees) }

// TreeSize returns the membership of tree i.
func (s *MultiTree) TreeSize(i int) int { return s.trees[i].Size() }

// TreeOf returns the tree index a member was assigned to.
func (s *MultiTree) TreeOf(m keytree.MemberID) (int, error) {
	i, ok := s.home[m]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrMemberUnknown, m)
	}
	return i, nil
}

// ProcessBatch implements Scheme.
func (s *MultiTree) ProcessBatch(b Batch) (*Rekey, error) { return sealed(s.Advance(b)) }

// Advance implements Scheme: the trees' wraps are left pending, the group
// key's are made here.
func (s *MultiTree) Advance(b Batch) (*Rekey, error) {
	if err := validateBatch(s, b); err != nil {
		return nil, err
	}
	s.epoch++
	r := &Rekey{Epoch: s.epoch, Welcome: make(map[keytree.MemberID]keycrypt.Key, len(b.Joins))}
	if b.IsEmpty() {
		s.note(r)
		return r, nil
	}

	// Split the batch per tree.
	perTree := make([]keytree.Batch, len(s.trees))
	for _, j := range b.Joins {
		i := s.assignTree(j)
		s.home[j.ID] = i
		perTree[i].Joins = append(perTree[i].Joins, j.ID)
		perTree[i].Keys = carry(perTree[i].Keys, j.ID, b.Keys[j.ID])
	}
	for _, m := range b.Leaves {
		i := s.home[m]
		perTree[i].Leaves = append(perTree[i].Leaves, m)
		delete(s.home, m)
	}

	// Advance the trees — concurrently when allowed: each tree is an
	// independent key hierarchy with its own entropy stream, so tree-level
	// rekeys share no mutable state.
	work := make([]rekeyOne, len(s.trees))
	for i, kb := range perTree {
		work[i] = rekeyOne{tree: s.trees[i], batch: kb}
	}
	payloads, err := rekeyTrees(s.parallel, work)
	if err != nil {
		return nil, err
	}

	streams := make([]Stream, len(s.trees))
	for i, kb := range perTree {
		streams[i].Label = fmt.Sprintf("tree-%d", i)
		if kb.IsEmpty() {
			continue
		}
		p := payloads[i]
		streams[i].Items = p.Items
		streams[i].JoinerItems = p.JoinerItems
		streams[i].pending = p.Pending
		for _, m := range kb.Joins {
			leaf, err := s.trees[i].Leaf(m)
			if err != nil {
				return nil, err
			}
			r.Welcome[m] = leaf.Key()
		}
	}

	// Group key update, delivered once per tree under its root.
	groupStream := Stream{Label: "group"}
	switch {
	case len(b.Leaves) > 0:
		newDEK, err := s.gen.Refresh(s.dek)
		if err != nil {
			return nil, err
		}
		s.dek = newDEK
		for i, tr := range s.trees {
			if tr.Size() == 0 {
				continue
			}
			root, err := tr.RootKey()
			if err != nil {
				return nil, err
			}
			w, err := keycrypt.Wrap(newDEK, root, s.gen.Rand)
			if err != nil {
				return nil, err
			}
			streams[i].Items = append(streams[i].Items, keytree.Item{Wrapped: w, Kind: keytree.ChildWrap, Level: 0})
			for _, m := range perTree[i].Joins {
				wj, err := keycrypt.Wrap(newDEK, r.Welcome[m], s.gen.Rand)
				if err != nil {
					return nil, err
				}
				streams[i].JoinerItems = append(streams[i].JoinerItems, keytree.Item{
					Wrapped: wj, Kind: keytree.JoinerWrap, Level: 0,
					Receivers: []keytree.MemberID{m},
				})
			}
		}
	case len(b.Joins) > 0:
		oldDEK := s.dek
		newDEK, err := s.gen.Refresh(s.dek)
		if err != nil {
			return nil, err
		}
		s.dek = newDEK
		w, err := keycrypt.Wrap(newDEK, oldDEK, s.gen.Rand)
		if err != nil {
			return nil, err
		}
		groupStream.Audience = s.Members()
		groupStream.Items = append(groupStream.Items, keytree.Item{Wrapped: w, Kind: keytree.OldKeyWrap, Level: 0})
		for _, j := range b.Joins {
			wj, err := keycrypt.Wrap(newDEK, r.Welcome[j.ID], s.gen.Rand)
			if err != nil {
				return nil, err
			}
			groupStream.JoinerItems = append(groupStream.JoinerItems, keytree.Item{
				Wrapped: wj, Kind: keytree.JoinerWrap, Level: 0,
				Receivers: []keytree.MemberID{j.ID},
			})
		}
	}

	for i := range streams {
		streams[i].Audience = s.trees[i].MembersView()
	}
	for _, st := range append(streams, groupStream) {
		if len(st.Items) > 0 || len(st.JoinerItems) > 0 {
			r.Streams = append(r.Streams, st)
		}
	}
	s.note(r)
	return r, nil
}

// GroupKey implements Scheme.
func (s *MultiTree) GroupKey() (keycrypt.Key, error) {
	if len(s.home) == 0 {
		return keycrypt.Key{}, ErrEmptyGroup
	}
	return s.dek, nil
}

// MemberKeys implements Scheme.
func (s *MultiTree) MemberKeys(m keytree.MemberID) ([]keycrypt.Key, error) {
	return s.locate(m).keys()
}

// PathIDs implements Scheme.
func (s *MultiTree) PathIDs(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
	return s.locate(m).ids(buf)
}

// locate finds m's keys: its path in its home tree, under the group key.
func (s *MultiTree) locate(m keytree.MemberID) keyHome {
	i, ok := s.home[m]
	h := keyHome{m: m, ok: ok, group: &s.dek}
	if ok {
		h.tree = s.trees[i]
	}
	return h
}

// Contains implements Scheme.
func (s *MultiTree) Contains(m keytree.MemberID) bool {
	_, ok := s.home[m]
	return ok
}

// Size implements Scheme.
func (s *MultiTree) Size() int { return len(s.home) }

// Stats implements Scheme.
func (s *MultiTree) Stats() SchemeStats {
	parts := make([]PartitionStat, len(s.trees))
	for i, tr := range s.trees {
		parts[i] = PartitionStat{Label: fmt.Sprintf("tree-%d", i), Size: tr.Size()}
	}
	st := s.stats(parts...)
	for _, tr := range s.trees {
		st.Planner = st.Planner.Add(tr.PlannerStats())
	}
	return st
}

// Members implements Scheme.
func (s *MultiTree) Members() []keytree.MemberID {
	views := make([][]keytree.MemberID, len(s.trees))
	for i, tr := range s.trees {
		views[i] = tr.MembersView()
	}
	return keytree.MergeMembers(views...)
}
