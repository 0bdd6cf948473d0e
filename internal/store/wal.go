package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"groupkey/internal/clock"
	"groupkey/internal/vfs"
	"groupkey/internal/wire"
)

// The write-ahead log: every state-mutating operation (scheme creation,
// membership batch, scheduled rotation) is appended as one CRC32C-framed
// record BEFORE it is applied to the in-memory scheme, so a crash at any
// instant loses at most work that no member ever observed. The log is
// segmented; segments fully covered by a snapshot are deleted.
//
// Record framing (all integers big-endian):
//
//	length(4) | crc32c(4) | body
//	body = kind(1) | seq(8) | seed(32) | payload
//
// The crc covers the body. seq increases by exactly 1 per record across
// segment boundaries; a gap is treated the same as a torn tail. seed is
// the fresh crypto/rand seed the operation's key material was derived
// from (see replayRand) — journaling it is what makes replay reproduce
// pre-crash keys bit-exactly.

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged batch is ever
	// lost, at the cost of one fsync per rekey.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs dirty segments from a background ticker
	// (Options.FsyncEvery, default 100ms): bounded loss window, near-zero
	// per-append cost.
	FsyncInterval
	// FsyncNever leaves syncing to the operating system: fastest, loses
	// whatever the page cache held on a power failure (a plain process
	// crash loses nothing — the data is in the kernel already).
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// WAL record kinds.
const (
	recCreate byte = 1 // scheme construction (payload: SchemeConfig)
	recBatch  byte = 2 // membership batch (payload: wire membership batch)
	recRotate byte = 3 // scheduled group-key rotation (no payload)
)

const (
	walPrefix = "wal-"
	walSuffix = ".log"
	seedSize  = 32
	// recFixed is kind + seq + seed.
	recFixed = 1 + 8 + seedSize
	// maxRecordBody bounds a record body so a corrupt length field cannot
	// trigger an absurd allocation. Batch payloads are bounded by the wire
	// frame limit.
	maxRecordBody = wire.MaxFrameSize + 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one journaled operation.
type walRecord struct {
	kind    byte
	seq     uint64
	seed    [seedSize]byte
	payload []byte
}

// encodeRecord frames one record.
func encodeRecord(r walRecord) []byte {
	body := make([]byte, 0, recFixed+len(r.payload))
	body = append(body, r.kind)
	body = binary.BigEndian.AppendUint64(body, r.seq)
	body = append(body, r.seed[:]...)
	body = append(body, r.payload...)
	out := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// wal is the segmented on-disk log. All methods are safe for concurrent
// use (the interval syncer runs beside appends).
type wal struct {
	fs       vfs.FS
	clk      clock.Clock
	dir      string
	policy   FsyncPolicy
	every    time.Duration
	segBytes int64
	metrics  *Metrics

	mu     sync.Mutex
	f      vfs.File
	path   string
	size   int64
	dirty  bool
	closed bool

	stop chan struct{}
	done chan struct{}
}

func newWAL(fsys vfs.FS, clk clock.Clock, dir string, policy FsyncPolicy, every time.Duration, segBytes int64, m *Metrics) *wal {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	if segBytes <= 0 {
		segBytes = 4 << 20
	}
	w := &wal{fs: vfs.Or(fsys), clk: clock.Or(clk), dir: dir, policy: policy, every: every, segBytes: segBytes, metrics: m}
	if policy == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w
}

func (w *wal) syncLoop() {
	defer close(w.done)
	ticker := w.clk.NewTicker(w.every)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C():
			w.mu.Lock()
			if w.dirty && w.f != nil {
				w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

func segPath(dir string, firstSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, firstSeq, walSuffix))
}

// append journals one record and applies the fsync policy.
func (w *wal) append(r walRecord) error {
	frame := encodeRecord(r)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal closed")
	}
	if w.f == nil || (w.size > 0 && w.size+int64(len(frame)) > w.segBytes) {
		if err := w.rollLocked(r.seq); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.size += int64(len(frame))
	w.metrics.noteAppend()
	switch w.policy {
	case FsyncAlways:
		if err := w.syncLocked(); err != nil {
			return err
		}
	case FsyncInterval:
		w.dirty = true
	}
	return nil
}

// rollLocked closes the active segment and starts a new one whose name
// carries the first sequence number it will hold.
func (w *wal) rollLocked(firstSeq uint64) error {
	if w.f != nil {
		if err := w.syncLocked(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("store: closing wal segment: %w", err)
		}
		w.f = nil
	}
	path := segPath(w.dir, firstSeq)
	f, err := w.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("store: creating wal segment: %w", err)
	}
	w.f, w.path, w.size, w.dirty = f, path, 0, false
	return w.fs.SyncDir(w.dir)
}

// syncLocked flushes the active segment, timing the fsync.
func (w *wal) syncLocked() error {
	if w.f == nil {
		return nil
	}
	start := w.clk.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: wal fsync: %w", err)
	}
	w.metrics.noteFsync(w.clk.Since(start))
	w.dirty = false
	return nil
}

// sync forces a flush regardless of policy (used on snapshot and close).
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	return err
}

// segments lists the WAL segment paths in ascending first-seq order.
func segments(dir string) ([]string, error) { return segmentsFS(vfs.OS{}, dir) }

func segmentsFS(fsys vfs.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, walPrefix) && strings.HasSuffix(name, walSuffix) {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out) // zero-padded hex: lexicographic == numeric
	return out, nil
}

// scanResult is what a WAL scan found on disk.
type scanResult struct {
	records []walRecord
	// tornPath/tornOffset locate the first byte of invalid data; tornPath
	// is empty when the log is clean. Everything from the torn point on
	// (including whole later segments) is garbage to be truncated.
	tornPath   string
	tornOffset int64
	// truncated counts the garbage bytes.
	truncated int64
	// segs are all segment paths seen, ascending.
	segs []string
}

// scanWAL reads every record from every segment, stopping at the first
// torn or corrupt frame (a crash can only tear the tail; anything after a
// bad frame is unreachable garbage). Sequence numbers must increase by
// exactly one across the whole log.
func scanWAL(dir string) (*scanResult, error) { return scanWALFS(vfs.OS{}, dir) }

func scanWALFS(fsys vfs.FS, dir string) (*scanResult, error) {
	segs, err := segmentsFS(fsys, dir)
	if err != nil {
		return nil, err
	}
	res := &scanResult{segs: segs}
	var prevSeq uint64
	haveSeq := false
	for i, path := range segs {
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: reading wal segment: %w", err)
		}
		off := int64(0)
		for {
			rest := data[off:]
			if len(rest) == 0 {
				break
			}
			bad := func() {
				res.tornPath = path
				res.tornOffset = off
				res.truncated += int64(len(rest))
			}
			if len(rest) < 8 {
				bad()
				break
			}
			n := binary.BigEndian.Uint32(rest[0:4])
			if n < recFixed || n > maxRecordBody || int(n) > len(rest)-8 {
				bad()
				break
			}
			body := rest[8 : 8+n]
			if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(rest[4:8]) {
				bad()
				break
			}
			var r walRecord
			r.kind = body[0]
			r.seq = binary.BigEndian.Uint64(body[1:9])
			copy(r.seed[:], body[9:9+seedSize])
			r.payload = append([]byte(nil), body[recFixed:]...)
			if haveSeq && r.seq != prevSeq+1 {
				bad()
				break
			}
			prevSeq, haveSeq = r.seq, true
			res.records = append(res.records, r)
			off += int64(8 + n)
		}
		if res.tornPath != "" {
			// Whole later segments are garbage too.
			for _, p := range segs[i+1:] {
				if fi, err := fsys.Stat(p); err == nil {
					res.truncated += fi.Size()
				}
			}
			break
		}
	}
	return res, nil
}

// applyTruncation removes the torn tail found by scanWAL: the torn segment
// is truncated at the last valid byte and every later segment is deleted.
func applyTruncation(dir string, res *scanResult) error {
	return applyTruncationFS(vfs.OS{}, dir, res)
}

func applyTruncationFS(fsys vfs.FS, dir string, res *scanResult) error {
	if res.tornPath == "" {
		return nil
	}
	drop := false
	for _, p := range res.segs {
		if p == res.tornPath {
			if res.tornOffset == 0 {
				if err := fsys.Remove(p); err != nil {
					return fmt.Errorf("store: removing torn segment: %w", err)
				}
			} else if err := fsys.Truncate(p, res.tornOffset); err != nil {
				return fmt.Errorf("store: truncating torn segment: %w", err)
			}
			drop = true
			continue
		}
		if drop {
			if err := fsys.Remove(p); err != nil {
				return fmt.Errorf("store: removing garbage segment: %w", err)
			}
		}
	}
	return fsys.SyncDir(dir)
}

// reopenActive positions the wal to append after the last valid record:
// the newest surviving segment is reopened for appending, if any.
func (w *wal) reopenActive() error {
	segs, err := segmentsFS(w.fs, w.dir)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(segs) == 0 {
		w.f, w.path, w.size = nil, "", 0
		return nil
	}
	path := segs[len(segs)-1]
	fi, err := w.fs.Stat(path)
	if err != nil {
		return err
	}
	f, err := w.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("store: reopening wal segment: %w", err)
	}
	w.f, w.path, w.size = f, path, fi.Size()
	return nil
}

// compact deletes segments every record of which is covered by the
// snapshot at snapSeq. The active segment is first rolled so it becomes
// eligible next time.
func (w *wal) compact(snapSeq uint64) error {
	w.mu.Lock()
	if w.f != nil {
		if err := w.syncLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
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
	// Segment i spans [firstSeq(i), firstSeq(i+1)-1]; it is fully covered
	// when the next segment starts at or below snapSeq+1. The last segment
	// has no successor: it is covered when a future append would start a
	// fresh one anyway, i.e. never here — it may still hold live records.
	for i := 0; i+1 < len(segs); i++ {
		var nextFirst uint64
		if _, err := fmt.Sscanf(filepath.Base(segs[i+1]), walPrefix+"%016x"+walSuffix, &nextFirst); err != nil {
			continue
		}
		if nextFirst <= snapSeq+1 {
			if err := w.fs.Remove(segs[i]); err != nil {
				return fmt.Errorf("store: compacting wal: %w", err)
			}
		}
	}
	// The (possibly surviving) newest segment stays closed; the next
	// append rolls into a new one. Removing the last segment when fully
	// covered is handled by recovery's replay cursor, not here.
	return w.fs.SyncDir(w.dir)
}
