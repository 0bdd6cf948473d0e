package core

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Migrate moves an entire group from one scheme to another — the
// reorganization step of the Section 3.4 adaptive strategy ("the key
// server can choose the best scheme to use. And this process can be
// repeated periodically").
//
// Every member of `from` is admitted into `to` (which must be empty) in
// one batch, carrying over its metadata and its individual key: a member
// keeps that key for life, so the rest of its new path arrives through the
// destination scheme's regular joiner items, wrapped under it. The
// returned Rekey is therefore fully decryptable by every current member
// using only keys it already holds — no registration round-trip.
//
// The cost is Θ(N·log N) keys — this is exactly why the adaptive advisor
// applies hysteresis before recommending a switch.
//
// Members index keys by ID, so the destination must never mint a carried
// key's ID. Migrate checks that every key the destination minted for the
// admission — the lowest ID it will ever mint is among them — lies above
// every carried key; build it with a WithKeyIDBase above the source's IDs.
// Otherwise, or if the destination minted no key at all (a one-member
// OneTree), Migrate returns ErrBadConfig and `to` must be discarded.
func Migrate(from, to Scheme, metaOf func(keytree.MemberID) MemberMeta) (*Rekey, error) {
	if to.Size() != 0 {
		return nil, fmt.Errorf("%w: destination scheme already has %d members", ErrBadConfig, to.Size())
	}
	members := from.Members()
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: source group is empty", ErrEmptyGroup)
	}

	batch := Batch{Joins: make([]Join, 0, len(members)), Keys: make(map[keytree.MemberID]keycrypt.Key, len(members))}
	for _, m := range members {
		keys, err := from.MemberKeys(m)
		if err != nil {
			return nil, fmt.Errorf("core: migrate: reading keys of %d: %w", m, err)
		}
		meta := MemberMeta{LossRate: -1}
		if metaOf != nil {
			meta = metaOf(m)
		}
		batch.Joins = append(batch.Joins, Join{ID: m, Meta: meta})
		batch.Keys[m] = keys[0] // leaf first, by Scheme contract
	}
	rekey, err := to.ProcessBatch(batch)
	if err != nil {
		return nil, fmt.Errorf("core: migrate: admitting members: %w", err)
	}

	var carried, minted keycrypt.KeyID
	var ids []keycrypt.KeyID
	for _, m := range members {
		ids = to.PathIDs(m, ids[:0])
		carried = max(carried, ids[0])
		for _, id := range ids[1:] {
			if minted == 0 || id < minted {
				minted = id
			}
		}
	}
	if minted <= carried {
		return nil, fmt.Errorf("%w: destination key IDs from %v do not lie above the carried ones (up to %v)", ErrBadConfig, minted, carried)
	}
	// Every member holds its individual key already: nothing to hand over.
	rekey.Welcome = nil
	return rekey, nil
}
