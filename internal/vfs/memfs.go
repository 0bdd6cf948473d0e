package vfs

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory FS with a page-cache durability model and
// injectable faults, built for deterministic simulation:
//
//   - Reads always see the latest written bytes (like the OS page cache).
//   - Bytes written through a File handle become durable only on Sync
//     (or SyncDir over the parent); a Crash discards the unsynced suffix
//     of every file, optionally keeping a seeded partial prefix of it —
//     the torn-tail fault the WAL's scan-and-truncate recovery handles.
//   - Metadata (create, remove, rename) is durable immediately; the
//     store syncs directories at every metadata boundary anyway, and
//     modeling torn metadata would only re-test the OS, not the store.
//   - WriteDelay lets the simulator charge virtual time per written byte
//     (the slow-disk fault); FailNextWrite makes the next data write
//     persist a prefix and fail (the mid-write crash fault).
//
// All paths are cleaned with path.Clean; callers use slash paths.
type Mem struct {
	mu     sync.Mutex
	files  map[string]*memFile
	dirs   map[string]bool
	tmpSeq int

	now func() time.Time

	// WriteDelay, when non-nil, is called with the byte count of every
	// data write before it lands. The simulator uses it to advance
	// virtual time; it must not call back into the FS.
	WriteDelay func(bytes int)

	// failNext, when armed, makes the next data write keep only
	// keepFrac of its bytes and return an error.
	failNext     bool
	failKeepFrac float64
}

type memFile struct {
	data   []byte
	synced int // prefix length guaranteed to survive a crash
	mtime  time.Time
}

// NewMem builds an empty in-memory filesystem. now supplies modification
// times (nil means time.Now); simulations pass their virtual clock so
// Stat output is deterministic.
func NewMem(now func() time.Time) *Mem {
	if now == nil {
		now = time.Now
	}
	return &Mem{files: make(map[string]*memFile), dirs: map[string]bool{"/": true}, now: now}
}

func clean(p string) string { return path.Clean("/" + strings.TrimPrefix(p, "/")) }

// FailNextWrite arms the mid-write crash fault: the next data write
// persists only keepFrac of its bytes (clamped to [0,1]) and returns an
// error, as if the disk died partway through the write.
func (m *Mem) FailNextWrite(keepFrac float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if keepFrac < 0 {
		keepFrac = 0
	}
	if keepFrac > 1 {
		keepFrac = 1
	}
	m.failNext, m.failKeepFrac = true, keepFrac
}

// Crash simulates a machine crash: every file loses its unsynced suffix.
// tornKeep, when non-nil, is consulted per torn file with the number of
// unsynced bytes and returns how many of them survive (a seeded partial
// tail — the classic torn write).
func (m *Mem) Crash(tornKeep func(unsynced int) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		if len(f.data) <= f.synced {
			continue
		}
		keep := 0
		if tornKeep != nil {
			keep = tornKeep(len(f.data) - f.synced)
			if keep < 0 {
				keep = 0
			}
			if keep > len(f.data)-f.synced {
				keep = len(f.data) - f.synced
			}
		}
		f.data = f.data[:f.synced+keep]
		if len(f.data) < f.synced {
			f.synced = len(f.data)
		}
	}
}

func (m *Mem) MkdirAll(p string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	for p != "/" {
		m.dirs[p] = true
		p = path.Dir(p)
	}
	return nil
}

func (m *Mem) ReadFile(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(p)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: p, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// chargeLocked applies the write-delay and fail-next faults. It returns
// an error when the write must fail; partial persistence is handled by
// the callers that support it.
func (m *Mem) chargeLocked(bytes int) error {
	if m.WriteDelay != nil {
		// Release the lock around the callback: the simulator advances
		// virtual time, which must not deadlock against Stat calls.
		delay := m.WriteDelay
		m.mu.Unlock()
		delay(bytes)
		m.mu.Lock()
	}
	if m.failNext {
		m.failNext = false
		return errFailInjected
	}
	return nil
}

var errFailInjected = fmt.Errorf("vfs: injected write failure")

func (m *Mem) ReadDir(p string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if !m.dirs[p] {
		return nil, &fs.PathError{Op: "open", Path: p, Err: fs.ErrNotExist}
	}
	seen := make(map[string]bool)
	var out []fs.DirEntry
	for fp, f := range m.files {
		if path.Dir(fp) == p {
			out = append(out, memEntry{name: path.Base(fp), dir: false, size: int64(len(f.data)), mtime: f.mtime})
			seen[path.Base(fp)] = true
		}
	}
	for dp := range m.dirs {
		if dp != "/" && path.Dir(dp) == p && !seen[path.Base(dp)] {
			out = append(out, memEntry{name: path.Base(dp), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *Mem) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if _, ok := m.files[p]; ok {
		delete(m.files, p)
		return nil
	}
	if m.dirs[p] {
		delete(m.dirs, p)
		return nil
	}
	return &fs.PathError{Op: "remove", Path: p, Err: fs.ErrNotExist}
}

func (m *Mem) Rename(oldPath, newPath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldPath, newPath = clean(oldPath), clean(newPath)
	f, ok := m.files[oldPath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldPath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldPath)
	m.files[newPath] = f
	return nil
}

func (m *Mem) Truncate(p string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[clean(p)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: p, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		return &fs.PathError{Op: "truncate", Path: p, Err: fs.ErrInvalid}
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	f.mtime = m.now()
	return nil
}

func (m *Mem) Stat(p string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	if f, ok := m.files[p]; ok {
		return memEntry{name: path.Base(p), size: int64(len(f.data)), mtime: f.mtime}, nil
	}
	if m.dirs[p] {
		return memEntry{name: path.Base(p), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: p, Err: fs.ErrNotExist}
}

func (m *Mem) OpenFile(p string, flag int, _ os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p = clean(p)
	f, exists := m.files[p]
	switch {
	case flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		if exists {
			return nil, &fs.PathError{Op: "open", Path: p, Err: fs.ErrExist}
		}
		f = &memFile{mtime: m.now()}
		m.files[p] = f
	case !exists:
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: p, Err: fs.ErrNotExist}
		}
		f = &memFile{mtime: m.now()}
		m.files[p] = f
	}
	return &memHandle{fs: m, path: p, f: f}, nil
}

func (m *Mem) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tmpSeq++
	name := strings.Replace(pattern, "*", fmt.Sprintf("%08d", m.tmpSeq), 1)
	if !strings.Contains(pattern, "*") {
		name = pattern + fmt.Sprintf("%08d", m.tmpSeq)
	}
	p := clean(path.Join(dir, name))
	if _, ok := m.files[p]; ok {
		return nil, &fs.PathError{Op: "createtemp", Path: p, Err: fs.ErrExist}
	}
	f := &memFile{mtime: m.now()}
	m.files[p] = f
	return &memHandle{fs: m, path: p, f: f}, nil
}

func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	if !m.dirs[dir] {
		return &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	// Metadata is durable at once in this model, so there is nothing to
	// flush; data written through handles still needs its own Sync,
	// exactly like a real filesystem.
	return nil
}

// memHandle is an open write handle. The store's handles are append-only
// by construction (fresh create-exclusive segments, reopened with
// O_APPEND), so writes always extend the file.
type memHandle struct {
	fs     *Mem
	path   string
	f      *memFile
	closed bool
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if err := h.fs.chargeLocked(len(p)); err != nil {
		keep := int(float64(len(p)) * h.fs.failKeepFrac)
		h.f.data = append(h.f.data, p[:keep]...)
		h.f.mtime = h.fs.now()
		return keep, &fs.PathError{Op: "write", Path: h.path, Err: err}
	}
	h.f.data = append(h.f.data, p...)
	h.f.mtime = h.fs.now()
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.f.synced = len(h.f.data)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

func (h *memHandle) Name() string { return h.path }

// memEntry doubles as DirEntry and FileInfo.
type memEntry struct {
	name  string
	dir   bool
	size  int64
	mtime time.Time
}

func (e memEntry) Name() string      { return e.name }
func (e memEntry) IsDir() bool       { return e.dir }
func (e memEntry) Type() fs.FileMode { return e.Mode().Type() }
func (e memEntry) Mode() fs.FileMode {
	if e.dir {
		return fs.ModeDir | 0o700
	}
	return 0o600
}
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) ModTime() time.Time         { return e.mtime }
func (e memEntry) Sys() any                   { return nil }
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }

var _ fs.DirEntry = memEntry{}
var _ fs.FileInfo = memEntry{}
