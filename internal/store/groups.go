package store

// State layout: a registry hosting N groups keeps one fully independent
// store per group under <root>/<group>/ — its own WAL segments, snapshots,
// master key and signing key — so groups share no key material at rest
// and a corrupted group recovers (or is discarded) without touching its
// neighbours. A single-group daemon is a registry of one: its state lives
// under <root>/0/.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"groupkey/internal/keycrypt"
	"groupkey/internal/wire"
)

// GroupDir returns the state directory of one hosted group under root:
// <root>/<decimal group ID>/.
func GroupDir(root string, g wire.GroupID) string {
	return filepath.Join(root, strconv.FormatUint(uint64(g), 10))
}

// groupKeyIDShift positions each group's key-ID namespace. 2^40 IDs per
// group leaves room for ~10^12 keys over a group's lifetime while fitting
// 2^24 group namespaces in the 64-bit ID space.
const groupKeyIDShift = 40

// GroupKeyIDBase returns the key-ID base a group's scheme must be built
// with (core.WithKeyIDBase) so no two hosted groups ever mint the same
// key ID. Group 0 keeps base 0, identical to a standalone scheme.
func GroupKeyIDBase(g wire.GroupID) keycrypt.KeyID {
	return keycrypt.KeyID(uint64(g)) << groupKeyIDShift
}

// ListGroupDirs scans a state root for group namespaces, returning the
// hosted group IDs in ascending order. Non-numeric entries are ignored,
// but a canonically named
// group directory that cannot be statted or opened is an error: silently
// dropping it would recover the registry without that shard — members of
// the skipped group would be told "unknown group" while its journaled key
// state sits on disk.
func ListGroupDirs(root string) ([]wire.GroupID, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []wire.GroupID
	for _, e := range entries {
		name := e.Name()
		n, err := strconv.ParseUint(name, 10, 32)
		if err != nil || name != strconv.FormatUint(n, 10) {
			continue // not a canonical decimal group name
		}
		path := filepath.Join(root, name)
		info, err := os.Stat(path) // follows symlinked group dirs
		if err != nil {
			return nil, fmt.Errorf("store: group namespace %s: %w", name, err)
		}
		if !info.IsDir() {
			continue
		}
		d, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: group namespace %s unreadable: %w", name, err)
		}
		d.Close()
		out = append(out, wire.GroupID(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
