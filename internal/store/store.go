// Package store is the key server's durable state subsystem: a segmented
// CRC32C-framed write-ahead log of every state-mutating operation, plus
// periodic encrypted snapshots, plus crash recovery that rebuilds the
// scheme bit-identically to the pre-crash instance.
//
// The trick that makes replay exact is seeded entropy: every WAL record
// carries a fresh 32-byte crypto/rand seed, and the scheme draws all key
// material from a deterministic reader (keycrypt.NewSeededReader) that the
// store reseeds from the record immediately before applying it. Journal
// first, then derive — so recovery reseeds from the journaled record and
// derives the very same keys the lost instance handed to members. Members
// therefore survive a server crash without rejoining: their cached keys
// still match the recovered tree. The live run seals each rekey right
// after advancing it, so its wrap nonces are the stream's last bytes;
// replay advances without sealing and never draws them.
//
// Write ordering is journal → apply → broadcast. A crash between journal
// and broadcast re-derives a rekey that no member received; the resume
// protocol (wire.MsgResume) closes that gap by sending each reconnecting
// member its current key path.
package store

import (
	"crypto/ed25519"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"groupkey/internal/clock"
	"groupkey/internal/core"
	"groupkey/internal/keycrypt"
	"groupkey/internal/keytree"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// Options configures a store.
type Options struct {
	// Fsync selects the WAL durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the background sync interval for FsyncInterval
	// (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes caps a WAL segment before rolling (default 4 MiB).
	SegmentBytes int64
	// KeyFile locates the hex-encoded 32-byte master key for snapshot
	// encryption at rest; default <dir>/master.key, auto-generated 0600
	// when absent.
	KeyFile string
	// Metrics receives durability instruments; nil disables.
	Metrics *Metrics
	// SchemeOptions are extra core options applied when building or
	// restoring schemes (e.g. core.WithRekeyWorkers). The store always
	// adds core.WithRand with its own reader; do not pass one.
	SchemeOptions []core.Option
	// FS is the filesystem seam (nil means the real OS filesystem). The
	// deterministic simulator mounts an in-memory faultable filesystem
	// here.
	FS vfs.FS
	// Clock drives the fsync-interval ticker and fsync timing metrics
	// (nil means the wall clock).
	Clock clock.Clock
	// Entropy seeds every journaled record and snapshot seal (nil means
	// crypto/rand). The simulator injects a seeded stream so whole runs
	// replay bit-identically; everything derived from it is journaled, so
	// production determinism is unaffected.
	Entropy io.Reader
}

// Store owns one state directory. Methods are safe for concurrent use,
// though the server serializes journaled operations by construction.
type Store struct {
	dir     string
	opts    Options
	fs      vfs.FS
	entropy io.Reader
	wal     *wal
	master  keycrypt.Key
	signing ed25519.PrivateKey
	rand    *replayRand

	mu        sync.Mutex
	seq       uint64        // last journaled record
	snapSeq   uint64        // newest snapshot's record
	fence     atomic.Uint64 // FenceEpoch; written under mu
	recovered bool
	hasScheme bool
	// subs is ordered by subscription age: record fan-out must visit
	// subscribers in a deterministic order under the simulator.
	subs []*Subscription
}

// Open prepares the state directory: creates it (0700) if missing, loads
// (or generates) the master and signing keys and reads the fence epoch.
// No WAL or snapshot is read until Recover, and opening an existing
// directory writes nothing.
func Open(dir string, opts Options) (*Store, error) {
	fsys := vfs.Or(opts.FS)
	entropy := opts.Entropy
	if entropy == nil {
		entropy = crand.Reader
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	keyFile := opts.KeyFile
	if keyFile == "" {
		keyFile = filepath.Join(dir, "master.key")
	}
	masterRaw, err := loadOrCreateSecret(fsys, entropy, keyFile, 32)
	if err != nil {
		return nil, fmt.Errorf("store: master key: %w", err)
	}
	master, err := keycrypt.NewKey(masterKeyID, 0, masterRaw)
	if err != nil {
		return nil, err
	}
	seed, err := loadOrCreateSecret(fsys, entropy, filepath.Join(dir, "signing.key"), ed25519.SeedSize)
	if err != nil {
		return nil, fmt.Errorf("store: signing key: %w", err)
	}
	fence, err := readFenceEpoch(fsys, dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		fs:      fsys,
		entropy: entropy,
		master:  master,
		signing: ed25519.NewKeyFromSeed(seed),
		rand:    &replayRand{},
	}
	s.fence.Store(fence)
	s.wal = newWAL(fsys, clock.Or(opts.Clock), dir, opts.Fsync, opts.FsyncEvery, opts.SegmentBytes, opts.Metrics)
	return s, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// SigningKey returns the server's persistent Ed25519 signing key. Keeping
// it in the state directory means resumed members' pinned server key
// survives a restart.
func (s *Store) SigningKey() ed25519.PrivateKey { return s.signing }

// Rand returns the entropy source every scheme built on this store must
// use. Reads outside a journaled operation fail loudly — key material
// that is not derivable from the WAL could never be recovered.
func (s *Store) Rand() io.Reader { return s.rand }

// RecoveryResult summarizes what Recover rebuilt.
type RecoveryResult struct {
	// Scheme is the recovered scheme, nil when the directory held no
	// state (fresh boot — call Create next).
	Scheme core.Scheme
	// NextID is the smallest member ID the server may assign without
	// colliding with any ID ever issued, including departed members'.
	NextID keytree.MemberID
	// ReplayedBatches counts WAL membership batches re-applied.
	ReplayedBatches int
	// ReplayedRotations counts WAL rotation records re-applied.
	ReplayedRotations int
	// TruncatedBytes is how much torn tail the scan discarded.
	TruncatedBytes int64
	// SnapshotSeq is the WAL sequence the loaded snapshot covered
	// (0 = recovery started from an empty state or WAL origin).
	SnapshotSeq uint64
}

// Recover loads the newest valid snapshot, truncates any torn WAL tail,
// replays surviving records, and arms the store for journaling. It must
// be called exactly once, before any Journal or Create call.
func (s *Store) Recover() (*RecoveryResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recovered {
		return nil, errors.New("store: already recovered")
	}
	res := &RecoveryResult{NextID: 1}

	// Newest readable snapshot wins; unreadable ones (torn by a crash
	// while the master key changed, say) fall through to older files.
	// badSnap keeps the first snapshot that opened but did not decode (an
	// unsupported version, say) in case the WAL cannot stand in for it.
	var scheme core.Scheme
	var badSnap error
	snaps, err := snapshotFilesFS(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	for _, path := range snaps {
		sealed, err := s.fs.ReadFile(path)
		if err != nil {
			continue
		}
		plain, err := keycrypt.Open(s.master, sealed)
		if err != nil {
			continue
		}
		seq, nextID, blob, err := decodeSnapshotPlain(plain)
		var sc core.Scheme
		if err == nil {
			sc, err = core.RestoreScheme(blob, s.schemeOptions()...)
		}
		if err != nil {
			if badSnap == nil {
				badSnap = fmt.Errorf("%s: %w", path, err)
			}
			continue
		}
		scheme, s.snapSeq, res.SnapshotSeq, res.NextID = sc, seq, seq, nextID
		break
	}

	scan, err := scanWALFS(s.fs, s.dir)
	if err != nil {
		return nil, err
	}
	if recs := scan.records; scheme == nil && badSnap != nil && (len(recs) == 0 || recs[0].seq != 1) {
		// The WAL cannot rebuild the state alone: report the snapshot,
		// not a WAL gap or a fresh boot that Create would start over it.
		return nil, fmt.Errorf("store: no snapshot loads and the WAL does not start at seq 1: %w", badSnap)
	}
	res.TruncatedBytes = scan.truncated
	if err := applyTruncationFS(s.fs, s.dir, scan); err != nil {
		return nil, err
	}

	// If every surviving record is covered by the snapshot, the WAL holds
	// nothing to replay; clear it so appends resume exactly at snapSeq+1
	// and the next scan sees a contiguous log again.
	records := scan.records
	if n := len(records); n == 0 || records[n-1].seq <= s.snapSeq {
		records = nil
		segs, err := segmentsFS(s.fs, s.dir)
		if err != nil {
			return nil, err
		}
		for _, p := range segs {
			if err := s.fs.Remove(p); err != nil {
				return nil, err
			}
		}
		if len(segs) > 0 {
			if err := s.fs.SyncDir(s.dir); err != nil {
				return nil, err
			}
		}
		s.seq = s.snapSeq
	} else {
		s.seq = records[n-1].seq
	}

	// Replay records past the snapshot, reseeding before each so the
	// derived key material matches what the lost instance handed out.
	first := true
	for _, r := range records {
		if r.seq <= s.snapSeq {
			continue
		}
		if first && r.seq != s.snapSeq+1 {
			return nil, fmt.Errorf("store: wal gap: snapshot covers seq %d but replay starts at %d", s.snapSeq, r.seq)
		}
		first = false
		next, rk, nextID, err := s.applyRecord(scheme, r)
		if err != nil {
			return nil, err
		}
		scheme, res.NextID = next, max(res.NextID, nextID)
		if rk != nil {
			if r.kind == recBatch {
				res.ReplayedBatches++
			} else {
				res.ReplayedRotations++
			}
		}
	}

	if err := s.wal.reopenActive(); err != nil {
		return nil, err
	}
	s.opts.Metrics.noteRecovery(res.ReplayedBatches)
	s.recovered = true
	s.hasScheme = scheme != nil
	res.Scheme = scheme
	return res, nil
}

// applyRecord applies one journaled record to sc (nil until the create
// record) under the record's own seed: the one replay path, shared by
// Recover and ReplicaApply. A batch is only advanced (core.Scheme.Advance):
// the rekey comes back with its key-tree wraps unsealed, since replay sends
// nothing. The record's stream is closed once the operation returns, so
// sealing that rekey, or any other draw before the next journaled
// operation, fails instead of drawing bytes no record accounts for. An
// operation the original run rejected (journal first, then fail, mutating
// nothing) is the same no-op here: a nil rekey and no error. nextID is one
// past the newest joiner (0 = none).
func (s *Store) applyRecord(sc core.Scheme, r walRecord) (core.Scheme, *core.Rekey, keytree.MemberID, error) {
	defer s.rand.reseed(nil)
	switch {
	case r.kind == recCreate && sc != nil:
		return sc, nil, 0, fmt.Errorf("store: duplicate create record at seq %d", r.seq)
	case r.kind != recCreate && sc == nil:
		return nil, nil, 0, fmt.Errorf("store: record seq %d (kind %d) before any scheme", r.seq, r.kind)
	}
	switch r.kind {
	case recCreate:
		cfg, err := decodeSchemeConfig(r.payload)
		if err != nil {
			return nil, nil, 0, err
		}
		s.rand.reseed(r.seed[:])
		if sc, err = cfg.Build(s.schemeOptions()...); err != nil {
			return nil, nil, 0, fmt.Errorf("store: building scheme from create record: %w", err)
		}
		return sc, nil, 0, nil
	case recBatch:
		joins, leaves, err := wire.DecodeMembershipBatch(r.payload)
		if err != nil {
			return sc, nil, 0, fmt.Errorf("store: record seq %d: %w", r.seq, err)
		}
		var nextID keytree.MemberID
		b := core.Batch{Leaves: leaves}
		for _, j := range joins {
			b.Joins = append(b.Joins, core.Join{ID: j.Member, Meta: core.MemberMeta{
				LossRate: j.Req.LossRate, LongLived: j.Req.LongLived,
			}})
			nextID = max(nextID, j.Member+1)
		}
		s.rand.reseed(r.seed[:])
		rk, err := sc.Advance(b)
		if err != nil {
			return sc, nil, nextID, nil // the original run failed identically
		}
		return sc, rk, nextID, nil
	case recRotate:
		rot, ok := sc.(core.Rotator)
		if !ok {
			return sc, nil, 0, fmt.Errorf("store: scheme %s cannot rotate", sc.Name())
		}
		s.rand.reseed(r.seed[:])
		rk, err := rot.Rotate()
		if err != nil {
			return sc, nil, 0, nil // the original run failed identically
		}
		return sc, rk, 0, nil
	default:
		return sc, nil, 0, fmt.Errorf("store: unknown record kind %d at seq %d", r.kind, r.seq)
	}
}

// Create journals the scheme construction and builds the scheme on the
// store's entropy. Only valid on a store Recover reported empty.
func (s *Store) Create(cfg SchemeConfig) (core.Scheme, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return nil, errors.New("store: Create before Recover")
	}
	if s.hasScheme || s.seq != 0 {
		return nil, errors.New("store: Create on a non-empty store")
	}
	seed, err := s.journalLocked(recCreate, cfg.encode())
	if err != nil {
		return nil, err
	}
	s.rand.reseed(seed)
	sc, err := cfg.Build(s.schemeOptions()...)
	if err != nil {
		return nil, err
	}
	s.hasScheme = true
	return sc, nil
}

// JournalBatch journals one membership batch and reseeds the entropy
// source; the caller applies the batch to the scheme immediately after.
// All batches must be journaled, empty heartbeats included — the epoch
// advances and TwoPartition migrations fire on them. The WAL holds no
// keys, so a batch carrying joiners' individual keys (Keys) is refused.
func (s *Store) JournalBatch(b core.Batch) error {
	if len(b.Keys) > 0 {
		return fmt.Errorf("store: batch carries %d individual keys", len(b.Keys))
	}
	joins := make([]wire.MemberJoin, 0, len(b.Joins))
	for _, j := range b.Joins {
		joins = append(joins, wire.MemberJoin{Member: j.ID, Req: wire.JoinRequest{
			LossRate: j.Meta.LossRate, LongLived: j.Meta.LongLived,
		}})
	}
	payload := wire.EncodeMembershipBatch(joins, b.Leaves)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalReady(); err != nil {
		return err
	}
	seed, err := s.journalLocked(recBatch, payload)
	if err != nil {
		return err
	}
	s.rand.reseed(seed)
	return nil
}

// JournalRotate journals a scheduled group-key rotation; the caller calls
// the scheme's Rotate immediately after.
func (s *Store) JournalRotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.journalReady(); err != nil {
		return err
	}
	seed, err := s.journalLocked(recRotate, nil)
	if err != nil {
		return err
	}
	s.rand.reseed(seed)
	return nil
}

func (s *Store) journalReady() error {
	if !s.recovered {
		return errors.New("store: journal before Recover")
	}
	if !s.hasScheme {
		return errors.New("store: journal before Create")
	}
	return nil
}

// journalLocked appends one record under a fresh crypto/rand seed and
// returns the seed for reseeding. On error nothing must be applied: the
// WAL may hold a torn record (cleaned by the next recovery) but the
// in-memory state is unchanged.
func (s *Store) journalLocked(kind byte, payload []byte) ([]byte, error) {
	var r walRecord
	r.kind = kind
	r.seq = s.seq + 1
	r.payload = payload
	if _, err := io.ReadFull(s.entropy, r.seed[:]); err != nil {
		return nil, fmt.Errorf("store: seeding record: %w", err)
	}
	if err := s.wal.append(r); err != nil {
		return nil, err
	}
	s.seq = r.seq
	s.notifyLocked(Record{Kind: r.kind, Seq: r.seq, Seed: r.seed, Payload: r.payload})
	return r.seed[:], nil
}

// SaveSnapshot serializes the scheme, seals it under the master key,
// lands it atomically, and compacts WAL segments the snapshot covers. The
// caller must guarantee the scheme reflects every journaled record (the
// server holds its own lock across journal+apply+snapshot).
func (s *Store) SaveSnapshot(sc core.Scheme, nextID keytree.MemberID) error {
	if sc == nil {
		return errors.New("store: nil scheme")
	}
	blob, err := sc.Snapshot()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recovered {
		return errors.New("store: snapshot before Recover")
	}
	if err := s.wal.sync(); err != nil {
		return err
	}
	if err := s.landSnapshotLocked(s.seq, nextID, blob); err != nil {
		return err
	}
	s.snapSeq = s.seq
	if err := s.wal.compact(s.snapSeq); err != nil {
		return err
	}
	if err := s.wal.reopenActive(); err != nil {
		return err
	}
	return pruneSnapshotsFS(s.fs, s.dir)
}

// LastSeq returns the sequence number of the newest journaled record.
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close flushes and closes the WAL.
func (s *Store) Close() error {
	return s.wal.close()
}

func (s *Store) schemeOptions() []core.Option {
	return append([]core.Option{core.WithRand(s.rand)}, s.opts.SchemeOptions...)
}

// replayRand is the scheme-facing entropy source: a deterministic stream
// reseeded from each WAL record before the record's operation runs, live
// and during replay alike. Reads outside a journaled operation fail: before
// the first one, and after a replayed one until the next is journaled.
type replayRand struct {
	mu  sync.Mutex
	cur io.Reader
}

// errOutsideJournal refuses a draw from a closed replayRand.
var errOutsideJournal = errors.New("store: entropy requested outside a journaled operation")

func (r *replayRand) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return 0, errOutsideJournal
	}
	return r.cur.Read(p)
}

// reseed starts the stream of a record's seed; nil ends the stream.
func (r *replayRand) reseed(seed []byte) {
	var cur io.Reader
	if seed != nil {
		cur = keycrypt.NewSeededReader(seed)
	}
	r.mu.Lock()
	r.cur = cur
	r.mu.Unlock()
}

// loadOrCreateSecret reads a hex-encoded n-byte secret from path,
// generating one from entropy and landing it with WriteFileDurable when
// the file does not exist.
func loadOrCreateSecret(fsys vfs.FS, entropy io.Reader, path string, n int) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		raw, err := hex.DecodeString(strings.TrimSpace(string(data)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(raw) != n {
			return nil, fmt.Errorf("%s: got %d bytes, want %d", path, len(raw), n)
		}
		return raw, nil
	case errors.Is(err, fs.ErrNotExist):
		raw := make([]byte, n)
		if _, err := io.ReadFull(entropy, raw); err != nil {
			return nil, err
		}
		if err := WriteFileDurable(fsys, path, []byte(hex.EncodeToString(raw)+"\n")); err != nil {
			return nil, err
		}
		return raw, nil
	default:
		return nil, err
	}
}
