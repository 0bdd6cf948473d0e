package core

import (
	"fmt"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
)

// PartitionMode selects the two-partition construction (Section 3.2).
type PartitionMode int

const (
	// QT keeps the S-partition as a linear queue: a joiner needs only the
	// group key, but every queue resident must be rekeyed individually on
	// a departure. Wins when the S-partition is small.
	QT PartitionMode = iota + 1
	// TT keeps both partitions as balanced key trees. Wins when the
	// S-partition is large.
	TT
	// PT is the oracle construction: member classes are known at join time
	// (as in Selcuk et al.), members are placed directly in the right
	// partition and never migrate. It upper-bounds the achievable gain.
	PT
)

// String implements fmt.Stringer.
func (m PartitionMode) String() string {
	switch m {
	case QT:
		return "qt"
	case TT:
		return "tt"
	case PT:
		return "pt"
	default:
		return fmt.Sprintf("PartitionMode(%d)", int(m))
	}
}

// Key ID space bases keep every key-holder's ID unique across partitions.
const (
	dekKeyID       keycrypt.KeyID = 1
	queueKeyIDBase keycrypt.KeyID = 1 << 40
	sTreeKeyIDBase keycrypt.KeyID = 1 << 41
	lTreeKeyIDBase keycrypt.KeyID = 1 << 42
)

// TwoPartition implements the Section 3 optimization: a short-term
// S-partition and a long-term L-partition beneath a shared group key.
// Joiners enter S; members surviving SPeriodK rekey periods migrate to L in
// the same batch that processes the period's departures.
type TwoPartition struct {
	mode    PartitionMode
	degree  int
	sPeriod uint64 // K: periods a member must survive in S before migrating
	gen     keycrypt.Generator
	dek     keycrypt.Key
	epoch   uint64

	// S-partition state. QT uses queue (individual keys); TT and PT use
	// stree. joinEpoch drives migration (unused in PT).
	queue       map[keytree.MemberID]keycrypt.Key
	stree       *keytree.Tree
	joinEpoch   map[keytree.MemberID]uint64
	nextQueueID keycrypt.KeyID

	ltree *keytree.Tree

	// parallel allows the S and L trees to rekey concurrently (only when
	// entropy comes from crypto/rand; see WithRekeyWorkers).
	parallel bool

	statCounters
}

var _ Scheme = (*TwoPartition)(nil)

// NewTwoPartition builds the scheme. sPeriodK is the S-period measured in
// rekey periods (the paper's K = Ts/Tp); with K = 0 the scheme degenerates
// to the one-keytree organization (all joins go straight to L).
func NewTwoPartition(mode PartitionMode, sPeriodK int, opts ...Option) (*TwoPartition, error) {
	if mode != QT && mode != TT && mode != PT {
		return nil, fmt.Errorf("%w: mode=%v", ErrBadConfig, mode)
	}
	if sPeriodK < 0 {
		return nil, fmt.Errorf("%w: sPeriodK=%d", ErrBadConfig, sPeriodK)
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	s := &TwoPartition{
		mode:        mode,
		degree:      o.degree,
		sPeriod:     uint64(sPeriodK),
		gen:         keycrypt.Generator{Rand: o.rand},
		queue:       make(map[keytree.MemberID]keycrypt.Key),
		joinEpoch:   make(map[keytree.MemberID]uint64),
		nextQueueID: o.keyIDBase + queueKeyIDBase,
		parallel:    o.treeConcurrency(),
	}
	dek, err := s.gen.New(o.keyIDBase+dekKeyID, 0)
	if err != nil {
		return nil, err
	}
	s.dek = dek
	if mode != QT {
		s.stree, err = keytree.New(o.degree, o.treeOptions(o.keyIDBase+sTreeKeyIDBase)...)
		if err != nil {
			return nil, err
		}
	}
	s.ltree, err = keytree.New(o.degree, o.treeOptions(o.keyIDBase+lTreeKeyIDBase)...)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements Scheme.
func (s *TwoPartition) Name() string { return fmt.Sprintf("two-partition-%s", s.mode) }

// Mode returns the construction in use.
func (s *TwoPartition) Mode() PartitionMode { return s.mode }

// SetSPeriod updates K, the number of rekey periods a member must survive
// in S before migrating to L, for subsequent batches; members already in
// S migrate under the new K at the next batch. Like the planner's churn
// hint this changes payload-affecting decisions, so durable deployments
// must only set it through configuration that replays with the log.
// Negative values are ignored.
func (s *TwoPartition) SetSPeriod(k int) {
	if k < 0 {
		return
	}
	s.sPeriod = uint64(k)
}

// SPartitionSize returns the current number of members in the S-partition.
func (s *TwoPartition) SPartitionSize() int {
	if s.mode == QT {
		return len(s.queue)
	}
	return s.stree.Size()
}

// LPartitionSize returns the current number of members in the L-partition.
func (s *TwoPartition) LPartitionSize() int { return s.ltree.Size() }

// inS reports whether m currently resides in the S-partition.
func (s *TwoPartition) inS(m keytree.MemberID) bool {
	if s.mode == QT {
		_, ok := s.queue[m]
		return ok
	}
	return s.stree.Contains(m)
}

// ProcessBatch implements Scheme. One batch performs, in order: departures
// from both partitions, migration of S members that survived the S-period,
// admission of joiners, and the group-key update (skipped when the batch
// contains neither joins nor departures — pure migration does not
// compromise any key, Section 3.2 phase 3).
func (s *TwoPartition) ProcessBatch(b Batch) (*Rekey, error) {
	if err := validateBatch(s, b); err != nil {
		return nil, err
	}
	s.epoch++
	r := &Rekey{Epoch: s.epoch, Welcome: make(map[keytree.MemberID]keycrypt.Key, len(b.Joins))}

	leaving := make(map[keytree.MemberID]bool, len(b.Leaves))
	var sLeaves, lLeaves []keytree.MemberID
	for _, m := range b.Leaves {
		leaving[m] = true
		if s.inS(m) {
			sLeaves = append(sLeaves, m)
		} else {
			lLeaves = append(lLeaves, m)
		}
	}

	// Migration set: S members that survived the S-period and are not
	// leaving right now. PT never migrates.
	var migrants []keytree.MemberID
	if s.mode != PT {
		for _, m := range sortedMembers(s.joinEpoch) {
			if !leaving[m] && s.epoch-s.joinEpoch[m] >= s.sPeriod {
				migrants = append(migrants, m)
			}
		}
	}

	// Route joiners. K=0 degenerates to one tree: everything goes to L.
	var sJoins, lJoins []keytree.MemberID
	for _, j := range b.Joins {
		switch {
		case s.mode == PT && j.Meta.LongLived:
			lJoins = append(lJoins, j.ID)
		case s.mode != PT && s.sPeriod == 0:
			lJoins = append(lJoins, j.ID)
		default:
			sJoins = append(sJoins, j.ID)
			s.joinEpoch[j.ID] = s.epoch
		}
	}

	// Capture migrants' current individual keys before the S departure
	// procedure destroys them: their new L leaf keys are delivered wrapped
	// under these.
	migrantOldKey := make(map[keytree.MemberID]keycrypt.Key, len(migrants))
	for _, m := range migrants {
		k, err := s.individualKeyInS(m)
		if err != nil {
			return nil, err
		}
		migrantOldKey[m] = k
	}

	// --- S-partition ---
	sStream := Stream{Label: "s-partition"}
	lkb := keytree.Batch{Joins: append(append([]keytree.MemberID{}, migrants...), lJoins...), Leaves: lLeaves}
	var lPayload *keytree.Payload
	switch s.mode {
	case QT:
		for _, m := range append(append([]keytree.MemberID{}, sLeaves...), migrants...) {
			delete(s.queue, m)
			delete(s.joinEpoch, m)
		}
		for _, m := range sJoins {
			ik, err := s.gen.New(s.nextQueueID, 0)
			if err != nil {
				return nil, err
			}
			s.nextQueueID++
			s.queue[m] = ik
			r.Welcome[m] = ik
		}
		if !lkb.IsEmpty() {
			p, err := s.ltree.Rekey(lkb)
			if err != nil {
				return nil, err
			}
			lPayload = p
		}
	default: // TT, PT
		kb := keytree.Batch{Joins: sJoins, Leaves: append(append([]keytree.MemberID{}, sLeaves...), migrants...)}
		// S and L are disjoint key hierarchies with disjoint ID spaces, so
		// their rekeys can run concurrently when the entropy source allows.
		ps, err := rekeyTrees(s.parallel, []rekeyOne{
			{tree: s.stree, batch: kb},
			{tree: s.ltree, batch: lkb},
		})
		if err != nil {
			return nil, err
		}
		if ps[0] != nil {
			sStream.Items = ps[0].Items
			sStream.JoinerItems = ps[0].JoinerItems
		}
		lPayload = ps[1]
		for _, m := range append(append([]keytree.MemberID{}, sLeaves...), migrants...) {
			delete(s.joinEpoch, m)
		}
		for _, m := range sJoins {
			leaf, err := s.stree.Leaf(m)
			if err != nil {
				return nil, err
			}
			r.Welcome[m] = leaf.Key()
		}
	}

	// --- L-partition ---
	lStream := Stream{Label: "l-partition"}
	if lPayload != nil {
		lStream.Items = lPayload.Items
		lStream.JoinerItems = lPayload.JoinerItems
	}
	for _, m := range lJoins {
		leaf, err := s.ltree.Leaf(m)
		if err != nil {
			return nil, err
		}
		r.Welcome[m] = leaf.Key()
	}
	// Hand each migrant its new L leaf key under its old S individual key.
	for _, m := range migrants {
		leaf, err := s.ltree.Leaf(m)
		if err != nil {
			return nil, err
		}
		w, err := keycrypt.Wrap(leaf.Key(), migrantOldKey[m], s.gen.Rand)
		if err != nil {
			return nil, err
		}
		lStream.JoinerItems = append(lStream.JoinerItems, keytree.Item{
			Wrapped:   w,
			Kind:      keytree.JoinerWrap,
			Level:     leaf.Depth(),
			Receivers: []keytree.MemberID{m},
		})
	}

	// --- Group key ---
	joiners := excludeSet(b.Joins)
	groupStream := Stream{Label: "group"}
	switch {
	case len(b.Leaves) > 0:
		// Departures compromise the group key: refresh it and deliver the
		// new one per partition, never under its own previous version.
		newDEK, err := s.gen.Refresh(s.dek)
		if err != nil {
			return nil, err
		}
		s.dek = newDEK
		// S-partition delivery.
		if s.mode == QT {
			for _, m := range sortedMembers(s.queue) {
				w, err := keycrypt.Wrap(newDEK, s.queue[m], s.gen.Rand)
				if err != nil {
					return nil, err
				}
				if joiners[m] {
					sStream.JoinerItems = append(sStream.JoinerItems, keytree.Item{
						Wrapped: w, Kind: keytree.ChildWrap, Level: 0,
						Receivers: []keytree.MemberID{m},
					})
				} else {
					sStream.Items = append(sStream.Items, keytree.Item{Wrapped: w, Kind: keytree.ChildWrap, Level: 0})
				}
			}
		} else if s.stree.Size() > 0 {
			root, err := s.stree.RootKey()
			if err != nil {
				return nil, err
			}
			w, err := keycrypt.Wrap(newDEK, root, s.gen.Rand)
			if err != nil {
				return nil, err
			}
			sStream.Items = append(sStream.Items, keytree.Item{Wrapped: w, Kind: keytree.ChildWrap, Level: 0})
			for _, m := range sJoins {
				wj, err := keycrypt.Wrap(newDEK, r.Welcome[m], s.gen.Rand)
				if err != nil {
					return nil, err
				}
				sStream.JoinerItems = append(sStream.JoinerItems, keytree.Item{
					Wrapped: wj, Kind: keytree.JoinerWrap, Level: 0,
					Receivers: []keytree.MemberID{m},
				})
			}
		}
		// L-partition delivery. Migrants decrypt it via their fresh L path:
		// they hold no joiner item for the group key, so this item reaches
		// them by its wrapping key.
		if s.ltree.Size() > 0 {
			root, err := s.ltree.RootKey()
			if err != nil {
				return nil, err
			}
			w, err := keycrypt.Wrap(newDEK, root, s.gen.Rand)
			if err != nil {
				return nil, err
			}
			lStream.Items = append(lStream.Items, keytree.Item{Wrapped: w, Kind: keytree.ChildWrap, Level: 0})
			for _, m := range lJoins {
				wj, err := keycrypt.Wrap(newDEK, r.Welcome[m], s.gen.Rand)
				if err != nil {
					return nil, err
				}
				lStream.JoinerItems = append(lStream.JoinerItems, keytree.Item{
					Wrapped: wj, Kind: keytree.JoinerWrap, Level: 0,
					Receivers: []keytree.MemberID{m},
				})
			}
		}
	case len(b.Joins) > 0:
		// Joins only: backward confidentiality needs a fresh group key, but
		// one wrap under the previous group key reaches every old member.
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

	if s.mode == QT {
		sStream.Audience = sortedMembers(s.queue)
	} else {
		sStream.Audience = s.stree.MembersView()
	}
	lStream.Audience = s.ltree.MembersView()
	for _, st := range []Stream{sStream, lStream, groupStream} {
		if len(st.Items) > 0 || len(st.JoinerItems) > 0 {
			r.Streams = append(r.Streams, st)
		}
	}
	s.note(r)
	return r, nil
}

// individualKeyInS returns the member's current S-partition individual key.
func (s *TwoPartition) individualKeyInS(m keytree.MemberID) (keycrypt.Key, error) {
	if s.mode == QT {
		k, ok := s.queue[m]
		if !ok {
			return keycrypt.Key{}, fmt.Errorf("%w: %d not in queue", ErrMemberUnknown, m)
		}
		return k, nil
	}
	leaf, err := s.stree.Leaf(m)
	if err != nil {
		return keycrypt.Key{}, fmt.Errorf("%w: %d not in S tree", ErrMemberUnknown, m)
	}
	return leaf.Key(), nil
}

// GroupKey implements Scheme.
func (s *TwoPartition) GroupKey() (keycrypt.Key, error) {
	if s.Size() == 0 {
		return keycrypt.Key{}, ErrEmptyGroup
	}
	return s.dek, nil
}

// MemberKeys implements Scheme.
func (s *TwoPartition) MemberKeys(m keytree.MemberID) ([]keycrypt.Key, error) {
	return s.locate(m).keys()
}

// PathIDs implements Scheme.
func (s *TwoPartition) PathIDs(m keytree.MemberID, buf []keycrypt.KeyID) []keycrypt.KeyID {
	return s.locate(m).ids(buf)
}

// locate finds m's keys under the group key: its QT queue key, or its path
// in the S or the L tree.
func (s *TwoPartition) locate(m keytree.MemberID) keyHome {
	h := keyHome{m: m, ok: true, group: &s.dek}
	k, queued := s.queue[m]
	switch {
	case queued:
		h.own = k
	case s.stree != nil && s.stree.Contains(m):
		h.tree = s.stree
	case s.ltree.Contains(m):
		h.tree = s.ltree
	default:
		h.ok = false
	}
	return h
}

// Contains implements Scheme.
func (s *TwoPartition) Contains(m keytree.MemberID) bool {
	return s.inS(m) || s.ltree.Contains(m)
}

// Size implements Scheme.
func (s *TwoPartition) Size() int { return s.SPartitionSize() + s.ltree.Size() }

// Stats implements Scheme.
func (s *TwoPartition) Stats() SchemeStats {
	st := s.stats(
		PartitionStat{Label: "s", Size: s.SPartitionSize()},
		PartitionStat{Label: "l", Size: s.LPartitionSize()},
	)
	st.Planner = s.ltree.PlannerStats()
	if s.stree != nil {
		st.Planner = st.Planner.Add(s.stree.PlannerStats())
	}
	return st
}

// Members implements Scheme.
func (s *TwoPartition) Members() []keytree.MemberID {
	if s.mode == QT {
		return keytree.MergeMembers(sortedMembers(s.queue), s.ltree.MembersView())
	}
	return keytree.MergeMembers(s.stree.MembersView(), s.ltree.MembersView())
}
