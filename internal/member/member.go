// Package member implements the receiver side of group key management: a
// member holds its individual key plus whatever path and group keys it has
// learned, processes rekey payloads by decrypting every item it can (to a
// fixpoint, since one payload's items chain: a path key unwraps the next),
// and estimates its own packet-loss rate for piggybacking on NACKs
// (Section 4.2).
package member

import (
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// Member is one group member's key store. It is not safe for concurrent
// use.
type Member struct {
	id   keytree.MemberID
	keys map[keycrypt.KeyID]keycrypt.Key

	// Loss estimation counters (packets expected vs. received).
	expected int
	received int
}

// New creates a member bootstrapped with its registration package: the
// individual key handed over the secure registration channel.
func New(id keytree.MemberID, individual keycrypt.Key) *Member {
	m := &Member{id: id, keys: make(map[keycrypt.KeyID]keycrypt.Key, 8)}
	m.keys[individual.ID] = individual
	return m
}

// ID returns the member's identity.
func (m *Member) ID() keytree.MemberID { return m.id }

// KeyCount returns how many distinct keys the member currently holds.
func (m *Member) KeyCount() int { return len(m.keys) }

// Has reports whether the member holds exactly this key (ID, version and
// material).
func (m *Member) Has(k keycrypt.Key) bool {
	have, ok := m.keys[k.ID]
	return ok && have.Equal(k)
}

// Key returns the member's copy of a key slot.
func (m *Member) Key(id keycrypt.KeyID) (keycrypt.Key, bool) {
	k, ok := m.keys[id]
	return k, ok
}

// Needs reports whether the item would advance the member's key store: the
// member can unwrap it and does not yet hold the payload version. This is
// the sparseness test receivers use to decide whether to NACK a lost
// packet (Section 2.2).
func (m *Member) Needs(it keytree.Item) bool {
	w := it.Wrapped
	wrapper, ok := m.keys[w.WrapperID]
	if !ok || wrapper.Version != w.WrapperVersion {
		return false
	}
	cur, ok := m.keys[w.PayloadID]
	return !ok || cur.Version < w.PayloadVersion
}

// NeededItems returns the indexes of payload items the member can use but
// has not yet absorbed — exactly the NACK list a receiver-initiated rekey
// transport reports after a lossy round (Section 2.2: "a receiver need
// only provide negative feedback for packets that contain keys of interest
// to it").
func (m *Member) NeededItems(items []keytree.Item) []int {
	var out []int
	for i, it := range items {
		if m.Needs(it) {
			out = append(out, i)
		}
	}
	return out
}

// Apply decrypts everything it can from the payload items, iterating until
// no further item unwraps (items may arrive in any order). It returns the
// number of new keys learned. A run of items under one wrapping key — a
// joiner's path arrives as one item per level under its leaf key — expands
// that key's schedule once; no schedule outlives the call.
func (m *Member) Apply(items []keytree.Item) int {
	var un keycrypt.Unwrapper
	learned := 0
	for {
		progress := false
		for _, it := range items {
			if !m.Needs(it) {
				continue
			}
			wrapper := m.keys[it.Wrapped.WrapperID]
			got, err := un.Unwrap(it.Wrapped, wrapper)
			if err != nil {
				continue // not for us after all (or corrupted)
			}
			m.keys[got.ID] = got
			learned++
			progress = true
		}
		if !progress {
			return learned
		}
	}
}

// ApplyPath adopts a key-path chain, the key server's answer to a member
// that is behind (core.PathItems): ChildWrap items, the first under the
// member's leaf key, each later one under the key the one before it
// carries. Unlike Apply it replaces the member's copy of every key on the
// chain whatever version that copy has: the chain states the member's
// current path, and a copy at the same or a newer version can only come
// from epochs a crashed key server broadcast and its successor, never
// having journaled them, issued again. Callers pass only chains no older
// than the member's state. It reports false, changing nothing, unless
// items have that shape and each opens in turn from the leaf up; an empty
// chain adopts nothing. The shape is checked before anything is unwrapped.
func (m *Member) ApplyPath(leaf keycrypt.KeyID, items []keytree.Item) bool {
	wrapper, ok := m.keys[leaf]
	if !ok {
		return false
	}
	id, ver := wrapper.ID, wrapper.Version
	for _, it := range items {
		w := it.Wrapped
		if it.Kind != keytree.ChildWrap || w.WrapperID != id || w.WrapperVersion != ver {
			return false
		}
		id, ver = w.PayloadID, w.PayloadVersion
	}
	var un keycrypt.Unwrapper
	var buf [16]keycrypt.Key
	path := buf[:0]
	for _, it := range items {
		k, err := un.Unwrap(it.Wrapped, wrapper)
		if err != nil {
			return false
		}
		path = append(path, k)
		wrapper = k
	}
	for _, k := range path {
		m.keys[k.ID] = k
	}
	return true
}

// Forget drops a key slot (e.g. after migrating between partitions, the
// old partition's keys are refreshed away; dropping them models a
// well-behaved client).
func (m *Member) Forget(id keycrypt.KeyID) {
	delete(m.keys, id)
}

// RecordExpected notes that n packets were addressed to this member.
func (m *Member) RecordExpected(n int) { m.expected += n }

// RecordReceived notes that n packets actually arrived.
func (m *Member) RecordReceived(n int) { m.received += n }

// EstimatedLoss returns the member's observed loss rate, or -1 if it has
// no observations yet. Members report this at join time so the key server
// can place them in a loss-homogenized key tree (Section 4.2).
func (m *Member) EstimatedLoss() float64 {
	if m.expected == 0 {
		return -1
	}
	return 1 - float64(m.received)/float64(m.expected)
}
