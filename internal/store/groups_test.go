package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/wire"
)

func TestGroupDirAndKeyIDBase(t *testing.T) {
	if got := GroupDir("/state", 0); got != filepath.Join("/state", "0") {
		t.Errorf("GroupDir(0) = %q", got)
	}
	if got := GroupDir("/state", 4294967295); got != filepath.Join("/state", "4294967295") {
		t.Errorf("GroupDir(max) = %q", got)
	}
	if GroupKeyIDBase(0) != 0 {
		t.Error("group 0 must keep key-ID base 0")
	}
	// Bases must be disjoint namespaces: no two groups may overlap even
	// after a lifetime of key allocations below the shift width.
	seen := map[uint64]wire.GroupID{}
	for _, g := range []wire.GroupID{0, 1, 2, 63, 4294967295} {
		b := uint64(GroupKeyIDBase(g))
		if prev, dup := seen[b]; dup {
			t.Errorf("groups %d and %d share key-ID base %#x", prev, g, b)
		}
		seen[b] = g
		if b != uint64(g)<<groupKeyIDShift {
			t.Errorf("base for group %d = %#x", g, b)
		}
	}
}

func TestListGroupDirs(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"0", "7", "42"} {
		if err := os.MkdirAll(filepath.Join(root, name), 0o700); err != nil {
			t.Fatal(err)
		}
	}
	// Noise that must be ignored: non-numeric dirs, non-canonical decimal
	// names, and plain files.
	for _, name := range []string{"tmp", "007", "no"} {
		if err := os.MkdirAll(filepath.Join(root, name), 0o700); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(root, "9"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := ListGroupDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.GroupID{0, 7, 42}
	if len(got) != len(want) {
		t.Fatalf("ListGroupDirs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ListGroupDirs = %v, want %v", got, want)
		}
	}
	if got, err := ListGroupDirs(filepath.Join(root, "missing")); err != nil || got != nil {
		t.Fatalf("missing root: %v, %v", got, err)
	}
}

// TestMultiGroupStoresIndependent runs two groups under one state root
// with different schemes, crashes them (no final snapshot), and proves
// each namespace recovers its own exact state with disjoint key material.
func TestMultiGroupStoresIndependent(t *testing.T) {
	root := t.TempDir()
	groups := []wire.GroupID{0, 5}
	cfgs := map[wire.GroupID]SchemeConfig{0: {Kind: SchemeOneTree}, 5: {Kind: SchemeQT, SPeriodK: 2}}
	want := map[wire.GroupID][]byte{}
	masters := map[wire.GroupID][]byte{}

	for _, g := range groups {
		st := openStore(t, GroupDir(root, g), Options{
			SchemeOptions: []core.Option{core.WithKeyIDBase(GroupKeyIDBase(g))},
		})
		if _, err := st.Recover(); err != nil {
			t.Fatal(err)
		}
		sc, err := st.Create(cfgs[g])
		if err != nil {
			t.Fatal(err)
		}
		// Distinct histories so cross-contamination cannot accidentally match.
		joins := []core.Join{{ID: 1}, {ID: 2}}
		if g != 0 {
			joins = append(joins, core.Join{ID: 3}, core.Join{ID: 4})
		}
		journalAndApply(t, st, sc, core.Batch{Joins: joins})
		journalAndApply(t, st, sc, core.Batch{Leaves: []keytree.MemberID{1}})
		want[g] = snap(t, sc)
		master, err := os.ReadFile(filepath.Join(GroupDir(root, g), "master.key"))
		if err != nil {
			t.Fatal(err)
		}
		masters[g] = master
		// Crash: close the WAL, no snapshot — recovery must replay.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if bytes.Equal(masters[0], masters[5]) {
		t.Fatal("groups share a master key at rest")
	}
	found, err := ListGroupDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 || found[0] != 0 || found[1] != 5 {
		t.Fatalf("ListGroupDirs = %v, want [0 5]", found)
	}

	for _, g := range groups {
		st := openStore(t, GroupDir(root, g), Options{
			SchemeOptions: []core.Option{core.WithKeyIDBase(GroupKeyIDBase(g))},
		})
		res, err := st.Recover()
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		if res.Scheme == nil || res.ReplayedBatches != 2 {
			t.Fatalf("group %d: replayed %d batches", g, res.ReplayedBatches)
		}
		if !bytes.Equal(snap(t, res.Scheme), want[g]) {
			t.Errorf("group %d recovered to a different state", g)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
