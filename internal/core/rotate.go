package core

import (
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Group-key rotation: production key servers refresh the data key on a
// schedule even without membership changes, bounding how much traffic any
// one key protects. Because no member is compromised, the new key can ride
// a single wrap under its own previous version — one multicast item,
// regardless of group size or scheme.

// Rotator is implemented by schemes that support scheduled group-key
// rotation. All schemes in this package implement it.
type Rotator interface {
	// Rotate refreshes the group key without any membership change and
	// returns the (one-item) rekey payload.
	Rotate() (*Rekey, error)
}

var (
	_ Rotator = (*OneTree)(nil)
	_ Rotator = (*Naive)(nil)
	_ Rotator = (*TwoPartition)(nil)
	_ Rotator = (*MultiTree)(nil)
)

// rotateWrapped builds the standard rotation payload: newDEK wrapped under
// oldDEK, which every member holds, so the item reaches the whole
// membership by its wrapping key. members is the stream's audience.
func rotateWrapped(epoch uint64, newDEK, oldDEK keycrypt.Key, members []keytree.MemberID, rng keycrypt.Generator) (*Rekey, error) {
	w, err := keycrypt.Wrap(newDEK, oldDEK, rng.Rand)
	if err != nil {
		return nil, err
	}
	return &Rekey{
		Epoch: epoch,
		Streams: []Stream{{
			Label:    "rotation",
			Items:    []keytree.Item{{Wrapped: w, Kind: keytree.OldKeyWrap, Level: 0}},
			Audience: members,
		}},
	}, nil
}

// Rotate implements Rotator: the tree root is refreshed and distributed
// under its previous version.
func (s *OneTree) Rotate() (*Rekey, error) {
	old, err := s.tree.RootKey()
	if err != nil {
		return nil, ErrEmptyGroup
	}
	if err := s.tree.RefreshRoot(); err != nil {
		return nil, err
	}
	next, err := s.tree.RootKey()
	if err != nil {
		return nil, err
	}
	s.epoch++
	gen := keycrypt.Generator{Rand: s.tree.Rand()}
	r, err := rotateWrapped(s.epoch, next, old, s.tree.MembersView(), gen)
	if err != nil {
		return nil, err
	}
	s.note(r)
	return r, nil
}

// Rotate implements Rotator.
func (s *Naive) Rotate() (*Rekey, error) {
	if len(s.members) == 0 {
		return nil, ErrEmptyGroup
	}
	old := s.dek
	next, err := s.gen.Refresh(s.dek)
	if err != nil {
		return nil, err
	}
	s.dek = next
	s.epoch++
	r, err := rotateWrapped(s.epoch, next, old, s.Members(), s.gen)
	if err != nil {
		return nil, err
	}
	s.note(r)
	return r, nil
}

// Rotate implements Rotator.
func (s *TwoPartition) Rotate() (*Rekey, error) {
	if s.Size() == 0 {
		return nil, ErrEmptyGroup
	}
	old := s.dek
	next, err := s.gen.Refresh(s.dek)
	if err != nil {
		return nil, err
	}
	s.dek = next
	s.epoch++
	r, err := rotateWrapped(s.epoch, next, old, s.Members(), s.gen)
	if err != nil {
		return nil, err
	}
	s.note(r)
	return r, nil
}

// Rotate implements Rotator.
func (s *MultiTree) Rotate() (*Rekey, error) {
	if s.Size() == 0 {
		return nil, ErrEmptyGroup
	}
	old := s.dek
	next, err := s.gen.Refresh(s.dek)
	if err != nil {
		return nil, err
	}
	s.dek = next
	s.epoch++
	r, err := rotateWrapped(s.epoch, next, old, s.Members(), s.gen)
	if err != nil {
		return nil, err
	}
	s.note(r)
	return r, nil
}
