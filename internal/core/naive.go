package core

import (
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Naive is the strawman of Section 1: no key tree at all. Every member
// shares the group key and holds an individual key; on any membership
// change the server re-encrypts the new group key individually for every
// member — O(N) per rekey.
type Naive struct {
	gen     keycrypt.Generator
	dek     keycrypt.Key
	members map[keytree.MemberID]keycrypt.Key // individual keys
	nextID  keycrypt.KeyID
	epoch   uint64
	statCounters
}

var _ Scheme = (*Naive)(nil)

// NewNaive builds the unicast-rekeying baseline.
func NewNaive(opts ...Option) (*Naive, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	s := &Naive{
		gen:     keycrypt.Generator{Rand: o.rand},
		members: make(map[keytree.MemberID]keycrypt.Key),
		nextID:  o.keyIDBase + 2, // the DEK takes base+1
	}
	dek, err := s.gen.New(o.keyIDBase+1, 0)
	if err != nil {
		return nil, err
	}
	s.dek = dek
	return s, nil
}

// Name implements Scheme.
func (s *Naive) Name() string { return "naive-unicast" }

// ProcessBatch implements Scheme.
func (s *Naive) ProcessBatch(b Batch) (*Rekey, error) {
	if err := validateBatch(s, b); err != nil {
		return nil, err
	}
	s.epoch++
	r := &Rekey{Epoch: s.epoch, Welcome: make(map[keytree.MemberID]keycrypt.Key, len(b.Joins))}
	if b.IsEmpty() {
		s.note(r)
		return r, nil
	}

	for _, m := range b.Leaves {
		delete(s.members, m)
	}
	joiners := excludeSet(b.Joins)
	for _, j := range b.Joins {
		ik, err := s.gen.New(s.nextID, 0)
		if err != nil {
			return nil, err
		}
		s.nextID++
		s.members[j.ID] = ik
		r.Welcome[j.ID] = ik
	}

	oldDEK := s.dek
	newDEK, err := s.gen.Refresh(s.dek)
	if err != nil {
		return nil, err
	}
	s.dek = newDEK

	stream := Stream{Label: "group"}
	if len(b.Leaves) == 0 {
		// Joins only: one wrap under the old group key reaches everyone.
		w, err := keycrypt.Wrap(newDEK, oldDEK, s.gen.Rand)
		if err != nil {
			return nil, err
		}
		stream.Items = append(stream.Items, keytree.Item{Wrapped: w, Kind: keytree.OldKeyWrap, Level: 0})
	} else {
		// Departures: the departed knew the group key, so the new one must
		// go out under every remaining individual key — the O(N) cost.
		for _, m := range sortedMembers(s.members) {
			if joiners[m] {
				continue
			}
			w, err := keycrypt.Wrap(newDEK, s.members[m], s.gen.Rand)
			if err != nil {
				return nil, err
			}
			stream.Items = append(stream.Items, keytree.Item{Wrapped: w, Kind: keytree.ChildWrap, Level: 0})
		}
	}
	for _, j := range b.Joins {
		w, err := keycrypt.Wrap(newDEK, s.members[j.ID], s.gen.Rand)
		if err != nil {
			return nil, err
		}
		stream.JoinerItems = append(stream.JoinerItems, keytree.Item{
			Wrapped:   w,
			Kind:      keytree.JoinerWrap,
			Level:     0,
			Receivers: []keytree.MemberID{j.ID},
		})
	}
	stream.Audience = sortedMembers(s.members)
	r.Streams = append(r.Streams, stream)
	s.note(r)
	return r, nil
}

// GroupKey implements Scheme.
func (s *Naive) GroupKey() (keycrypt.Key, error) {
	if len(s.members) == 0 {
		return keycrypt.Key{}, ErrEmptyGroup
	}
	return s.dek, nil
}

// MemberKeys implements Scheme.
func (s *Naive) MemberKeys(m keytree.MemberID) ([]keycrypt.Key, error) { return s.locate(m).keys() }

// PathIDs implements Scheme.
func (s *Naive) PathIDs(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
	return s.locate(m).ids(buf)
}

// locate finds m's keys: its individual key under the group key.
func (s *Naive) locate(m keytree.MemberID) keyHome {
	ik, ok := s.members[m]
	return keyHome{m: m, ok: ok, own: ik, group: &s.dek}
}

// Contains implements Scheme.
func (s *Naive) Contains(m keytree.MemberID) bool {
	_, ok := s.members[m]
	return ok
}

// Size implements Scheme.
func (s *Naive) Size() int { return len(s.members) }

// Members implements Scheme.
func (s *Naive) Members() []keytree.MemberID { return sortedMembers(s.members) }

// Stats implements Scheme.
func (s *Naive) Stats() SchemeStats {
	return s.stats(PartitionStat{Label: "group", Size: len(s.members)})
}
