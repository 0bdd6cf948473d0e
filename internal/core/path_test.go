package core

import (
	"bytes"
	"testing"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/member"
)

// TestPathItemsTakeLeafToGroupKey: for every scheme, a member that holds
// only its leaf key reaches every key of its path, the group key included,
// from PathItems alone: one ChildWrap per key above the leaf, each under
// the key below it, at that key's depth. Building the chain changes no
// scheme state.
func TestPathItemsTakeLeafToGroupKey(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed uint64) (Scheme, error)
	}{
		{"onetree", func(seed uint64) (Scheme, error) { return NewOneTree(rnd(seed), WithDegree(2)) }},
		{"naive", func(seed uint64) (Scheme, error) { return NewNaive(rnd(seed)) }},
		{"qt", func(seed uint64) (Scheme, error) { return NewTwoPartition(QT, 1, rnd(seed)) }},
		{"tt", func(seed uint64) (Scheme, error) { return NewTwoPartition(TT, 2, rnd(seed)) }},
		{"losshomog", func(seed uint64) (Scheme, error) {
			return NewLossHomogenized([]float64{0.01, 0.05}, rnd(seed))
		}},
		{"randommulti", func(seed uint64) (Scheme, error) { return NewRandomMultiTree(3, rnd(seed)) }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(uint64(9100 + i))
			if err != nil {
				t.Fatal(err)
			}
			var b Batch
			for m := keytree.MemberID(1); m <= 20; m++ {
				b.Joins = append(b.Joins, Join{ID: m, Meta: MemberMeta{LossRate: 0.001 * float64(m)}})
			}
			for _, b := range []Batch{b, {}, {Leaves: []keytree.MemberID{3, 11}}, {}} {
				if _, err := s.ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			before, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rng := keycrypt.NewDeterministicReader(uint64(i))
			for _, m := range s.Members() {
				keys, err := s.MemberKeys(m)
				if err != nil {
					t.Fatal(err)
				}
				items, err := PathItems(s, m, rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(items) != len(keys)-1 {
					t.Fatalf("member %d: %d items for a path of %d keys", m, len(items), len(keys))
				}
				for j, it := range items {
					w := it.Wrapped
					if it.Kind != keytree.ChildWrap || w.WrapperID != keys[j].ID || w.PayloadID != keys[j+1].ID ||
						it.Level != len(keys)-2-j || len(it.Receivers) != 0 {
						t.Fatalf("member %d item %d: %v %v→%v level %d", m, j, it.Kind, w.WrapperID, w.PayloadID, it.Level)
					}
				}
				mem := member.New(m, keys[0])
				mem.Apply(items)
				for _, k := range keys {
					if !mem.Has(k) {
						t.Fatalf("member %d: key %v not reached from the leaf", m, k.ID)
					}
				}
			}
			after, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("PathItems changed the scheme's state")
			}
			if _, err := PathItems(s, 3, rng); err == nil {
				t.Fatal("a departed member was given a path")
			}
		})
	}
}
