package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/snapcodec"
	"groupkey/internal/vfs"
)

// Snapshot files hold the complete scheme state — every group secret —
// so they are sealed with AES-GCM under the store's master key before
// touching disk. A snapshot named snap-<seq>.gks captures the state after
// applying WAL record <seq>; recovery loads the newest valid one and
// replays only later records.
//
// Sealed layout (keycrypt.Seal framing; plaintext written with snapcodec):
//
//	plaintext = magic "GKSN" | version(4) = 3 | seq(8) | nextID(8) | scheme blob
//
// Older versions are rejected. The scheme blob restores by itself: every
// payload-affecting construction setting (the batch placement planner)
// lives in the key-tree blobs inside it, so a snapshot needs neither the
// WAL's create record nor a copy of the scheme config.
const (
	snapPrefix  = "snap-"
	snapSuffix  = ".gks"
	snapMagic   = "GKSN"
	snapVersion = 3
	// snapKeep is how many snapshot generations survive pruning: the
	// newest plus one fallback in case the newest is torn by a crash
	// during a later save (the rename is atomic, but belts and braces).
	snapKeep = 2
)

// masterKeyID is the key ID the at-rest master key is registered under;
// it shares no range with scheme-allocated key IDs.
const masterKeyID keycrypt.KeyID = 0x4d535452 // "MSTR"

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

// snapshotFiles lists snapshot paths, newest (highest seq) first.
func snapshotFiles(dir string) ([]string, error) { return snapshotFilesFS(vfs.OS{}, dir) }

func snapshotFilesFS(fsys vfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out, nil
}

// errBadSnapshot reports an unreadable snapshot envelope.
var errBadSnapshot = errors.New("store: malformed snapshot")

// encodeSnapshotPlain builds the plaintext to be sealed.
func encodeSnapshotPlain(seq uint64, nextID keytree.MemberID, blob []byte) []byte {
	w := snapcodec.NewWriter(snapMagic)
	w.U32(snapVersion)
	w.U64(seq)
	w.U64(uint64(nextID))
	w.Raw(blob)
	return w.Bytes()
}

// decodeSnapshotPlain parses a decrypted snapshot.
func decodeSnapshotPlain(b []byte) (seq uint64, nextID keytree.MemberID, blob []byte, err error) {
	r := snapcodec.NewReader(b, snapMagic, errBadSnapshot)
	r.Version(snapVersion)
	seq = r.U64()
	nextID = keytree.MemberID(r.U64())
	blob = r.Rest()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	return seq, nextID, blob, nil
}

// landSnapshotLocked seals the snapshot of the state after record seq
// under the master key and lands it with WriteFileDurable, so a crash
// leaves the old set of snapshots, or the old set plus a complete new one.
func (s *Store) landSnapshotLocked(seq uint64, nextID keytree.MemberID, blob []byte) error {
	sealed, err := keycrypt.Seal(s.master, encodeSnapshotPlain(seq, nextID, blob), s.entropy)
	if err != nil {
		return fmt.Errorf("store: sealing snapshot: %w", err)
	}
	if err := WriteFileDurable(s.fs, snapPath(s.dir, seq), sealed); err != nil {
		return err
	}
	s.opts.Metrics.noteSnapshot(len(sealed))
	return nil
}

// WriteFileDurable lands a small file atomically and durably: temp file
// in the same directory, write, fsync, rename over path, directory fsync.
// A crash at any point leaves either the old file or the complete new
// one under path. It is the store's one writer for whole files (keys, the
// fence epoch, snapshots) and backs cluster.DirAuthority's lease files.
func WriteFileDurable(fsys vfs.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// pruneSnapshotsFS deletes all but the snapKeep newest snapshot files.
func pruneSnapshotsFS(fsys vfs.FS, dir string) error {
	files, err := snapshotFilesFS(fsys, dir)
	if err != nil {
		return err
	}
	for _, p := range files[min(len(files), snapKeep):] {
		if err := fsys.Remove(p); err != nil {
			return err
		}
	}
	return nil
}
