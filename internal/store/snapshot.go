package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/vfs"
)

// Snapshot files hold the complete scheme state — every group secret —
// so they are sealed with AES-GCM under the store's master key before
// touching disk. A snapshot named snap-<seq>.gks captures the state after
// applying WAL record <seq>; recovery loads the newest valid one and
// replays only later records.
//
// Sealed layout (keycrypt.Seal framing):
//
//	plaintext = magic "GKSN" | version(4) | seq(8) | nextID(8)
//	          | cfgLen(4) | scheme config | scheme blob     (version 2)
//
// Version 1 had no config section and is rejected. The config rides in
// the snapshot because core scheme blobs deliberately do not serialize
// construction settings that change payload-affecting behavior (the batch
// placement planner): once the WAL's create record is compacted away, the
// snapshot is the only place recovery can learn them from. cfgLen 0 means
// the config was unknown when the snapshot was written (a replica that
// installed a shipped snapshot without ever seeing the create record).
const (
	snapPrefix  = "snap-"
	snapSuffix  = ".gks"
	snapMagic   = "GKSN"
	snapVersion = 2
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

// encodeSnapshotPlain builds the plaintext to be sealed. cfg may be nil
// when the writing store never learned the scheme's construction config.
func encodeSnapshotPlain(seq uint64, nextID keytree.MemberID, cfg *SchemeConfig, blob []byte) []byte {
	var cfgBytes []byte
	if cfg != nil {
		cfgBytes = cfg.encode()
	}
	out := make([]byte, 0, 4+4+8+8+4+len(cfgBytes)+len(blob))
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint32(out, snapVersion)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.BigEndian.AppendUint64(out, uint64(nextID))
	out = binary.BigEndian.AppendUint32(out, uint32(len(cfgBytes)))
	out = append(out, cfgBytes...)
	return append(out, blob...)
}

// decodeSnapshotPlain parses a decrypted snapshot. cfg is nil for files
// written without a known config.
func decodeSnapshotPlain(b []byte) (seq uint64, nextID keytree.MemberID, cfg *SchemeConfig, blob []byte, err error) {
	if len(b) < 4+4+8+8 || string(b[:4]) != snapMagic {
		return 0, 0, nil, nil, fmt.Errorf("store: not a snapshot")
	}
	if v := binary.BigEndian.Uint32(b[4:8]); v != snapVersion {
		return 0, 0, nil, nil, fmt.Errorf("store: snapshot version %d not supported", v)
	}
	seq = binary.BigEndian.Uint64(b[8:16])
	nextID = keytree.MemberID(binary.BigEndian.Uint64(b[16:24]))
	rest := b[24:]
	if len(rest) < 4 {
		return 0, 0, nil, nil, fmt.Errorf("store: snapshot config section truncated")
	}
	n := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if n > len(rest) {
		return 0, 0, nil, nil, fmt.Errorf("store: snapshot config section truncated")
	}
	if n > 0 {
		c, err := decodeSchemeConfig(rest[:n])
		if err != nil {
			return 0, 0, nil, nil, err
		}
		cfg = &c
	}
	return seq, nextID, cfg, rest[n:], nil
}

// writeSnapshotFile seals plain under master and lands it atomically:
// temp file in the same directory, fsync, rename, directory fsync. A
// crash at any point leaves either the old set of snapshots or the old
// set plus a complete new one — never a torn file under the final name.
func writeSnapshotFileFS(fsys vfs.FS, entropy io.Reader, dir string, seq uint64, master keycrypt.Key, plain []byte) (int, error) {
	sealed, err := keycrypt.Seal(master, plain, entropy)
	if err != nil {
		return 0, fmt.Errorf("store: sealing snapshot: %w", err)
	}
	tmp, err := fsys.CreateTemp(dir, snapPrefix+"tmp-*")
	if err != nil {
		return 0, err
	}
	defer fsys.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(sealed); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := fsys.Rename(tmp.Name(), snapPath(dir, seq)); err != nil {
		return 0, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return 0, err
	}
	return len(sealed), nil
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
