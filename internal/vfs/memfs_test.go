package vfs

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"testing"
)

// The durability model: handle writes survive a crash only once synced,
// and the torn-keep hook keeps a partial tail.
func TestMemCrashLosesUnsynced(t *testing.T) {
	m := NewMem(nil)
	if err := m.MkdirAll("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenFile("/d/wal", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	// Reads see everything before the crash.
	got, err := m.ReadFile("/d/wal")
	if err != nil || string(got) != "durable-volatile" {
		t.Fatalf("pre-crash read = %q, %v", got, err)
	}
	m.Crash(func(unsynced int) int { return 4 }) // torn tail: keep 4 of 9
	got, _ = m.ReadFile("/d/wal")
	if string(got) != "durable-vol" {
		t.Fatalf("post-crash read = %q, want %q", got, "durable-vol")
	}
}

// A whole file lands as temp handle, write, Sync, Rename: the synced
// bytes survive a crash under the new name, and a renamed file whose
// bytes were never synced comes back empty — the missing fsync a
// durable writer must not skip.
func TestMemSyncedWriteSurvivesRename(t *testing.T) {
	m := NewMem(nil)
	if err := m.MkdirAll("/d", 0o700); err != nil {
		t.Fatal(err)
	}
	land := func(name, data string, sync bool) {
		t.Helper()
		f, err := m.CreateTemp("/d", name+".tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := m.Rename(f.Name(), "/d/"+name); err != nil {
			t.Fatal(err)
		}
		if _, err := m.ReadFile(f.Name()); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("old name err = %v, want not-exist", err)
		}
	}
	land("key", "secret", true)
	land("unsynced", "lost", false)
	m.Crash(nil)
	got, err := m.ReadFile("/d/key")
	if err != nil || !bytes.Equal(got, []byte("secret")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	if got, err := m.ReadFile("/d/unsynced"); err != nil || len(got) != 0 {
		t.Fatalf("unsynced file after crash = %q, %v; want empty", got, err)
	}
}

func TestMemFailNextWrite(t *testing.T) {
	m := NewMem(nil)
	_ = m.MkdirAll("/d", 0o700)
	f, err := m.OpenFile("/d/wal", os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	m.FailNextWrite(0.5)
	n, err := f.Write([]byte("abcdefgh"))
	if err == nil {
		t.Fatal("injected write failure did not surface")
	}
	if n != 4 {
		t.Fatalf("kept %d bytes, want 4", n)
	}
	got, _ := m.ReadFile("/d/wal")
	if string(got) != "abcd" {
		t.Fatalf("file = %q, want torn prefix", got)
	}
	// Next write succeeds again.
	if _, err := f.Write([]byte("ij")); err != nil {
		t.Fatal(err)
	}
}

func TestMemReadDirSortedAndTempDeterministic(t *testing.T) {
	m := NewMem(nil)
	_ = m.MkdirAll("/d", 0o700)
	for _, name := range []string{"/d/b", "/d/a", "/d/c"} {
		if _, err := m.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := m.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i, e := range ents {
		if e.Name() != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Name(), want[i])
		}
	}
	t1, err := m.CreateTemp("/d", "snap-tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := m.CreateTemp("/d", "snap-tmp-*")
	if t1.Name() == t2.Name() {
		t.Fatal("temp names collide")
	}
	m2 := NewMem(nil)
	_ = m2.MkdirAll("/d", 0o700)
	u1, _ := m2.CreateTemp("/d", "snap-tmp-*")
	if t1.Name() != u1.Name() {
		t.Fatalf("temp naming not deterministic: %q vs %q", t1.Name(), u1.Name())
	}
}
