package core

import (
	"bytes"
	"testing"

	"groupkey/internal/keytree"
)

// TestSchemeSnapshotRoundTrip proves the durability contract for every
// scheme: Snapshot → RestoreScheme reproduces the exact key material and
// membership structure (byte-identical re-snapshot), and the restored
// scheme continues rekeying seamlessly for members that lived through the
// restart.
func TestSchemeSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		build func(seed uint64) (Scheme, error)
	}{
		{"onetree", func(seed uint64) (Scheme, error) { return NewOneTree(rnd(seed)) }},
		{"naive", func(seed uint64) (Scheme, error) { return NewNaive(rnd(seed)) }},
		{"qt", func(seed uint64) (Scheme, error) { return NewTwoPartition(QT, 1, rnd(seed)) }},
		{"tt", func(seed uint64) (Scheme, error) { return NewTwoPartition(TT, 2, rnd(seed)) }},
		{"pt", func(seed uint64) (Scheme, error) { return NewTwoPartition(PT, 2, rnd(seed)) }},
		{"losshomog", func(seed uint64) (Scheme, error) {
			return NewLossHomogenized([]float64{0.01, 0.05}, rnd(seed))
		}},
		{"randommulti", func(seed uint64) (Scheme, error) { return NewRandomMultiTree(3, rnd(seed)) }},
		// Planner-enabled trees record the flag in their blobs: the restore
		// below is handed no planner option and must still match.
		{"onetree-planner", func(seed uint64) (Scheme, error) {
			return NewOneTree(rnd(seed), WithPlanner(keytree.PlannerConfig{}))
		}},
		{"tt-planner", func(seed uint64) (Scheme, error) {
			return NewTwoPartition(TT, 2, rnd(seed), WithPlanner(keytree.PlannerConfig{}))
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(7000 + 10*i)
			s, err := tc.build(seed)
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(t, s)
			h.process(Batch{Joins: joins(MemberMeta{LossRate: 0.002}, 1, 2, 3)})
			h.process(Batch{Joins: joins(MemberMeta{LossRate: 0.2, LongLived: true}, 4, 5, 6)})
			// Heartbeat: advances migration clocks without membership change.
			h.process(Batch{})
			h.process(Batch{Joins: joins(MemberMeta{LossRate: -1}, 7, 8), Leaves: leaves(2)})

			blob, err := s.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			restored, err := RestoreScheme(blob, rnd(seed+1))
			if err != nil {
				t.Fatalf("RestoreScheme: %v", err)
			}
			if restored.Name() != s.Name() {
				t.Fatalf("restored name %q, want %q", restored.Name(), s.Name())
			}
			if restored.Size() != s.Size() {
				t.Fatalf("restored size %d, want %d", restored.Size(), s.Size())
			}
			if got, want := restored.Stats().Planner.Enabled, s.Stats().Planner.Enabled; got != want {
				t.Fatalf("restored planner=%v, want %v", got, want)
			}
			wantDEK, err := s.GroupKey()
			if err != nil {
				t.Fatal(err)
			}
			gotDEK, err := restored.GroupKey()
			if err != nil || !gotDEK.Equal(wantDEK) {
				t.Fatalf("group key lost across restore (err=%v)", err)
			}
			for _, m := range s.Members() {
				want, err := s.MemberKeys(m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.MemberKeys(m)
				if err != nil {
					t.Fatalf("restored MemberKeys(%d): %v", m, err)
				}
				if len(got) != len(want) {
					t.Fatalf("member %d: %d keys restored, want %d", m, len(got), len(want))
				}
				for j := range want {
					if !got[j].Equal(want[j]) {
						t.Fatalf("member %d key %d differs after restore", m, j)
					}
				}
			}

			// The canonical encoding makes restore⟳snapshot the identity.
			blob2, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("re-Snapshot: %v", err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("re-snapshot differs: %d vs %d bytes", len(blob2), len(blob))
			}

			// Continuity: the restored server rekeys, pre-restart clients
			// follow. The harness's clients were built against s; point a new
			// harness at restored but reuse the client key stores.
			h2 := &harness{t: t, s: restored, clients: h.clients}
			r := h2.process(Batch{Joins: joins(MemberMeta{LossRate: 0.003}, 20), Leaves: leaves(5)})
			if r.Epoch != 5 {
				t.Fatalf("epoch %d after restore, want 5 (continuing from 4)", r.Epoch)
			}
		})
	}
}

// TestRestoreSchemeRejectsGarbage exercises the dispatcher's failure
// paths.
func TestRestoreSchemeRejectsGarbage(t *testing.T) {
	if _, err := RestoreScheme(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := RestoreScheme([]byte("XXXX rest")); err == nil {
		t.Fatal("unknown magic accepted")
	}
	s, err := NewNaive(rnd(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProcessBatch(Batch{Joins: joins(MemberMeta{}, 1, 2)}); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreScheme(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := RestoreScheme(append(blob, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// FuzzRestore hammers RestoreScheme with mutated snapshots of every
// scheme: it must never panic, and anything it does accept must
// re-snapshot to a blob it accepts again (one-step normalization).
func FuzzRestore(f *testing.F) {
	builds := []func() (Scheme, error){
		func() (Scheme, error) { return NewOneTree(rnd(41)) },
		func() (Scheme, error) { return NewNaive(rnd(42)) },
		func() (Scheme, error) { return NewTwoPartition(TT, 2, rnd(43)) },
		func() (Scheme, error) { return NewTwoPartition(QT, 1, rnd(44)) },
		func() (Scheme, error) { return NewLossHomogenized([]float64{0.05}, rnd(45)) },
		func() (Scheme, error) { return NewRandomMultiTree(2, rnd(46)) },
	}
	for _, build := range builds {
		s, err := build()
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.ProcessBatch(Batch{Joins: joins(MemberMeta{LossRate: 0.01}, 1, 2, 3)}); err != nil {
			f.Fatal(err)
		}
		if _, err := s.ProcessBatch(Batch{Leaves: leaves(2)}); err != nil {
			f.Fatal(err)
		}
		blob, err := s.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := RestoreScheme(data, rnd(99))
		if err != nil {
			return
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot cannot re-snapshot: %v", err)
		}
		if _, err := RestoreScheme(blob, rnd(100)); err != nil {
			t.Fatalf("re-snapshot of accepted input rejected: %v", err)
		}
	})
}
