package core

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// OneTree is the unoptimized baseline every Section 2 scheme uses: a single
// balanced LKH tree whose root is the group key.
type OneTree struct {
	tree  *keytree.Tree
	epoch uint64
	statCounters
}

var _ Scheme = (*OneTree)(nil)

// NewOneTree builds the baseline scheme.
func NewOneTree(opts ...Option) (*OneTree, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	tr, err := keytree.New(o.degree, o.treeOptions(o.keyIDBase+1)...)
	if err != nil {
		return nil, err
	}
	return &OneTree{tree: tr}, nil
}

// Name implements Scheme.
func (s *OneTree) Name() string { return "one-keytree" }

// ProcessBatch implements Scheme.
func (s *OneTree) ProcessBatch(b Batch) (*Rekey, error) { return sealed(s.Advance(b)) }

// Advance implements Scheme.
func (s *OneTree) Advance(b Batch) (*Rekey, error) {
	if err := validateBatch(s, b); err != nil {
		return nil, err
	}
	kb := keytree.Batch{Leaves: b.Leaves, Keys: b.Keys}
	for _, j := range b.Joins {
		kb.Joins = append(kb.Joins, j.ID)
	}
	p, err := s.tree.Advance(kb)
	if err != nil {
		return nil, err
	}
	s.epoch++
	r := &Rekey{
		Epoch: s.epoch,
		Streams: []Stream{{
			Label:       "group",
			Items:       p.Items,
			JoinerItems: p.JoinerItems,
			Audience:    s.tree.MembersView(),
			pending:     p.Pending,
		}},
		Welcome: make(map[keytree.MemberID]keycrypt.Key, len(b.Joins)),
	}
	for _, j := range b.Joins {
		leaf, err := s.tree.Leaf(j.ID)
		if err != nil {
			return nil, fmt.Errorf("core: joiner %d vanished: %w", j.ID, err)
		}
		r.Welcome[j.ID] = leaf.Key()
	}
	s.note(r)
	return r, nil
}

// GroupKey implements Scheme: the tree root is the DEK.
func (s *OneTree) GroupKey() (keycrypt.Key, error) {
	k, err := s.tree.RootKey()
	if err != nil {
		return keycrypt.Key{}, ErrEmptyGroup
	}
	return k, nil
}

// MemberKeys implements Scheme.
func (s *OneTree) MemberKeys(m keytree.MemberID) ([]keycrypt.Key, error) { return s.locate(m).keys() }

// PathIDs implements Scheme.
func (s *OneTree) PathIDs(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
	return s.locate(m).ids(buf)
}

// locate finds m's keys: the tree's root is the group key.
func (s *OneTree) locate(m keytree.MemberID) keyHome {
	return keyHome{m: m, ok: s.tree.Contains(m), tree: s.tree}
}

// Contains implements Scheme.
func (s *OneTree) Contains(m keytree.MemberID) bool { return s.tree.Contains(m) }

// Size implements Scheme.
func (s *OneTree) Size() int { return s.tree.Size() }

// Members implements Scheme.
func (s *OneTree) Members() []keytree.MemberID { return s.tree.Members() }

// Stats implements Scheme.
func (s *OneTree) Stats() SchemeStats {
	st := s.stats(PartitionStat{Label: "group", Size: s.tree.Size()})
	st.Planner = s.tree.PlannerStats()
	return st
}

// Tree exposes the underlying key tree for white-box experiments.
func (s *OneTree) Tree() *keytree.Tree { return s.tree }
