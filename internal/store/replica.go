package store

import (
	"crypto/ed25519"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"groupkey/internal/core"
	"groupkey/internal/keytree"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// Replication support: a primary streams its journaled records to follower
// stores, which append and apply them verbatim — same kind, same sequence,
// same replay seed — so the follower's scheme derives byte-identical key
// material. The store exposes three building blocks: Subscribe (live
// records as they are journaled), RecordsFrom (catch-up from the on-disk
// log) and ReplicaApply (journal-then-apply one streamed record). A
// follower too far behind installs a full snapshot instead
// (InstallSnapshot), which also discards any WAL suffix journaled under a
// deposed primary's epoch.

// SeedSize is the per-record replay seed size, part of the WAL format and
// of the replication wire format.
const SeedSize = seedSize

// The replication frames in internal/wire carry the seed inline; the two
// formats must agree.
var _ [SeedSize]byte = [wire.ReplSeedSize]byte{}

// Record is one journaled operation in exportable form.
type Record struct {
	Kind    byte
	Seq     uint64
	Seed    [SeedSize]byte
	Payload []byte
}

// Exported record kinds (values are the on-disk WAL kinds).
const (
	RecCreate = recCreate
	RecBatch  = recBatch
	RecRotate = recRotate
)

// Subscription delivers records as they are journaled. A subscriber that
// falls more than its buffer behind is cut off: its channel is closed and
// Lost reports true — the subscriber must resubscribe and catch up from
// RecordsFrom (or a snapshot). Losing a lagging stream beats stalling the
// journal path every rekey waits on.
type Subscription struct {
	ch   chan Record
	lost bool
}

// C returns the record channel. It is closed when the subscription is
// cancelled or cut off for lagging.
func (sub *Subscription) C() <-chan Record { return sub.ch }

// Subscribe registers a live-record subscriber with the given channel
// buffer. The caller must eventually Unsubscribe.
func (s *Store) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	sub := &Subscription{ch: make(chan Record, buf)}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub
}

// Unsubscribe cancels a subscription and closes its channel.
func (s *Store) Unsubscribe(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.subs, sub); i >= 0 {
		s.subs = slices.Delete(s.subs, i, i+1)
		close(sub.ch)
	}
}

// Lost reports whether the subscription was cut off for lagging. Safe to
// call only after C() is closed.
func (sub *Subscription) Lost() bool { return sub.lost }

// notifyLocked fans a freshly journaled record out to subscribers in
// subscription order (a map here would make fan-out order — and thus the
// simulator's event traces — nondeterministic). Called under s.mu; sends
// never block — a full buffer cuts the subscriber off.
func (s *Store) notifyLocked(r Record) {
	kept := s.subs[:0]
	for _, sub := range s.subs {
		select {
		case sub.ch <- r:
			kept = append(kept, sub)
		default:
			sub.lost = true
			close(sub.ch)
		}
	}
	s.subs = kept
}

// RecordsFrom returns every journaled record with sequence > after, in
// order. ok is false when the log can no longer serve that point —
// compaction has deleted records the caller would need — in which case the
// caller must fall back to a full snapshot. Safe to call concurrently with
// appends: the scan stops at a torn in-flight tail, and callers pair it
// with a Subscription taken beforehand, deduplicating by sequence.
func (s *Store) RecordsFrom(after uint64) (recs []Record, ok bool, err error) {
	s.mu.Lock()
	last := s.seq
	s.mu.Unlock()
	if after >= last {
		return nil, true, nil
	}
	scan, err := scanWALFS(s.fs, s.dir)
	if err != nil {
		return nil, false, err
	}
	for _, r := range scan.records {
		if r.seq <= after {
			continue
		}
		recs = append(recs, Record{Kind: r.kind, Seq: r.seq, Seed: r.seed, Payload: r.payload})
	}
	if len(recs) == 0 || recs[0].Seq != after+1 {
		return nil, false, nil // compacted past the requested point
	}
	return recs, true, nil
}

// ErrOutOfOrder reports a streamed record that does not extend the
// replica's log by exactly one.
var ErrOutOfOrder = errors.New("store: replica record out of order")

// ReplicaApply journals one streamed record verbatim and applies it to the
// replica's scheme under the record's own seed, returning the (possibly
// newly created) scheme, the rekey the operation produced (nil when the
// operation was an original-run no-op; unsealed and not sealable, see
// applyRecord: its counts are what a caller reads) and a lower bound on the next
// assignable member ID (0 = no change). The record must extend the log by
// exactly one; anything else is ErrOutOfOrder and the caller must resync.
func (s *Store) ReplicaApply(sc core.Scheme, rec Record) (core.Scheme, *core.Rekey, keytree.MemberID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return sc, nil, 0, errors.New("store: ReplicaApply before Recover")
	}
	if rec.Seq != s.seq+1 {
		return sc, nil, 0, fmt.Errorf("%w: have %d, got %d", ErrOutOfOrder, s.seq, rec.Seq)
	}
	if err := s.wal.append(walRecord{kind: rec.Kind, seq: rec.Seq, seed: rec.Seed, payload: rec.Payload}); err != nil {
		return sc, nil, 0, err
	}
	s.seq = rec.Seq
	s.notifyLocked(rec)

	next, rk, nextID, err := s.applyRecord(sc, walRecord{kind: rec.Kind, seq: rec.Seq, seed: rec.Seed, payload: rec.Payload})
	s.hasScheme = s.hasScheme || next != nil
	return next, rk, nextID, err
}

// InstallSnapshot replaces the replica's entire state with a snapshot
// shipped by the primary: the scheme blob is restored, persisted locally
// under this store's master key, and the WAL — including any suffix
// journaled under a deposed epoch, which is exactly what must never be
// replayed again — is discarded. Old state is deleted before the new
// snapshot lands, so a crash mid-install recovers to either an empty store
// (which resyncs) or the installed state, never a hybrid.
func (s *Store) InstallSnapshot(seq uint64, nextID keytree.MemberID, blob []byte) (core.Scheme, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return nil, errors.New("store: InstallSnapshot before Recover")
	}
	sc, err := core.RestoreScheme(blob, s.schemeOptions()...)
	if err != nil {
		return nil, fmt.Errorf("store: restoring shipped snapshot: %w", err)
	}
	if err := s.wal.reset(); err != nil {
		return nil, err
	}
	snaps, err := snapshotFilesFS(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	for _, p := range snaps {
		if err := s.fs.Remove(p); err != nil {
			return nil, err
		}
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return nil, err
	}
	if err := s.landSnapshotLocked(seq, nextID, blob); err != nil {
		return nil, err
	}
	s.seq, s.snapSeq, s.hasScheme = seq, seq, true
	return sc, nil
}

// reset closes the active segment and deletes every WAL segment.
func (w *wal) reset() error {
	w.mu.Lock()
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			w.mu.Unlock()
			return err
		}
		w.f, w.path, w.size = nil, "", 0
	}
	w.mu.Unlock()
	segs, err := segmentsFS(w.fs, w.dir)
	if err != nil {
		return err
	}
	for _, p := range segs {
		if err := w.fs.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

// SigningSeed returns the seed of the store's Ed25519 signing key, for
// shipping to followers so a promoted replica serves the exact server key
// resuming members have pinned.
func (s *Store) SigningSeed() []byte { return s.signing.Seed() }

// AdoptSigningKey replaces the store's signing key with one derived from
// the primary's seed. A follower adopts the primary's key on its first
// stream so the group-wide signing identity survives failover.
func (s *Store) AdoptSigningKey(seed []byte) error {
	if len(seed) != ed25519.SeedSize {
		return fmt.Errorf("store: signing seed %d bytes", len(seed))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if subtle.ConstantTimeCompare(seed, s.signing.Seed()) == 1 {
		return nil
	}
	if err := WriteFileDurable(s.fs, filepath.Join(s.dir, "signing.key"), []byte(hex.EncodeToString(seed)+"\n")); err != nil {
		return err
	}
	s.signing = ed25519.NewKeyFromSeed(seed)
	return nil
}

// FenceEpoch returns the durable fence epoch, fence.epoch in the state
// directory (0 when never recorded): the highest lease epoch whose
// canonical log this replica's WAL is a prefix of. A follower claims it
// when asking to be caught up; a restarted node must not serve as primary
// under it again.
func (s *Store) FenceEpoch() uint64 { return s.fence.Load() }

// SetFenceEpoch durably records the fence epoch before returning.
func (s *Store) SetFenceEpoch(epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := WriteFileDurable(s.fs, filepath.Join(s.dir, fenceFile), []byte(strconv.FormatUint(epoch, 10)+"\n")); err != nil {
		return fmt.Errorf("store: fence epoch: %w", err)
	}
	s.fence.Store(epoch)
	return nil
}

const fenceFile = "fence.epoch"

// readFenceEpoch loads the fence epoch file; a missing file is epoch 0.
func readFenceEpoch(fsys vfs.FS, dir string) (uint64, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, fenceFile))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: fence epoch: %w", err)
	}
	epoch, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: fence epoch: %w", err)
	}
	return epoch, nil
}
