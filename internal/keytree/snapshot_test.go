package keytree

import (
	"bytes"
	"errors"
	"testing"

	"groupkey/internal/keycrypt"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tr := newTestTree(t, 4, 90)
	populate(t, tr, 100)
	if _, err := tr.Rekey(Batch{Leaves: []MemberID{5, 50}}); err != nil {
		t.Fatal(err)
	}

	blob, err := tr.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	got, err := Restore(blob, WithRand(keycrypt.NewDeterministicReader(91)))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	checkInvariants(t, got)

	if got.Size() != tr.Size() || got.Degree() != tr.Degree() || got.Height() != tr.Height() {
		t.Fatalf("shape mismatch: size %d/%d degree %d/%d height %d/%d",
			got.Size(), tr.Size(), got.Degree(), tr.Degree(), got.Height(), tr.Height())
	}
	if got.Stats() != tr.Stats() {
		t.Fatalf("stats mismatch: %+v vs %+v", got.Stats(), tr.Stats())
	}
	// Every member's full key path survives byte-for-byte.
	for _, m := range tr.Members() {
		want, err := tr.Path(m)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Path(m)
		if err != nil {
			t.Fatalf("restored tree lost member %d: %v", m, err)
		}
		if len(want) != len(have) {
			t.Fatalf("member %d path length %d vs %d", m, len(have), len(want))
		}
		for i := range want {
			if !want[i].Equal(have[i]) {
				t.Fatalf("member %d path key %d differs", m, i)
			}
		}
	}

	// The restored tree keeps working: a rekey must not collide key IDs.
	p, err := got.Rekey(Batch{Joins: []MemberID{500}, Leaves: []MemberID{7}})
	if err != nil {
		t.Fatalf("Rekey after restore: %v", err)
	}
	if p.MulticastKeyCount() == 0 {
		t.Fatal("empty rekey after restore")
	}
	checkInvariants(t, got)
}

func TestSnapshotEmptyTree(t *testing.T) {
	tr := newTestTree(t, 4, 92)
	blob, err := tr.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	got, err := Restore(blob, WithRand(keycrypt.NewDeterministicReader(93)))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got.Size() != 0 {
		t.Fatalf("restored size %d, want 0", got.Size())
	}
	populate(t, got, 8)
	checkInvariants(t, got)
}

func TestRestoreRejectsCorruption(t *testing.T) {
	tr := newTestTree(t, 4, 94)
	populate(t, tr, 16)
	blob, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), blob[4:]...),
		"truncated":     blob[:len(blob)/2],
		"trailing junk": append(append([]byte{}, blob...), 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := Restore(data); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err=%v, want ErrBadSnapshot", name, err)
		}
	}

	// Flip the version field; version 1 (no planner flag) is rejected too.
	for _, v := range []byte{99, 1} {
		bad := append([]byte{}, blob...)
		bad[7] = v
		if _, err := Restore(bad); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("version %d: err=%v", v, err)
		}
	}
}

// TestRestoreKeepsPlanner: the planner flag travels in the blob, so a
// restore given no options gets it back, an option cannot override it,
// and restore followed by snapshot is the identity.
func TestRestoreKeepsPlanner(t *testing.T) {
	for _, planner := range []bool{true, false} {
		opts := []Option{WithRand(keycrypt.NewDeterministicReader(96))}
		if planner {
			opts = append(opts, WithPlanner(PlannerConfig{}))
		}
		tr, err := New(4, opts...)
		if err != nil {
			t.Fatal(err)
		}
		populate(t, tr, 40)
		if _, err := tr.Rekey(Batch{Joins: []MemberID{100, 101, 102}, Leaves: []MemberID{3, 17}}); err != nil {
			t.Fatal(err)
		}
		blob, err := tr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Restore(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got.PlannerEnabled() != planner {
			t.Fatalf("planner=%v tree restored with PlannerEnabled()=%v", planner, got.PlannerEnabled())
		}
		again, err := got.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("planner=%v: restore then snapshot is not the identity", planner)
		}
		if !planner {
			forced, err := Restore(blob, WithPlanner(PlannerConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			if forced.PlannerEnabled() {
				t.Fatal("WithPlanner overrode the blob's planner flag")
			}
		}
	}
}

func TestRestoreRejectsStructuralLies(t *testing.T) {
	// Hand-craft a snapshot whose interior node claims a member.
	tr := newTestTree(t, 4, 95)
	populate(t, tr, 4)
	blob, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Header: 4 magic + 4 version + 4 degree + 1 planner + 8 nextID
	// + 5*8 stats + 4 hasRoot = 65.
	// Root node layout: id(8) ver(4) key(32) member(8) childCount(1).
	memberOff := 65 + 8 + 4 + 32
	bad := append([]byte{}, blob...)
	bad[memberOff+7] = 9 // root (interior) now claims member 9
	if _, err := Restore(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("interior-with-member: err=%v", err)
	}
}
