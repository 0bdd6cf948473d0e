// Package vfs is the filesystem seam under the durable store: every disk
// operation the store performs goes through an FS, so the deterministic
// simulator (internal/dst) can substitute an in-memory filesystem with
// injectable faults — slow writes, torn tails, crash-lost unsynced data —
// while production uses the real OS filesystem unchanged.
package vfs

import (
	"io/fs"
	"os"
)

// File is the writable-handle surface the store needs (WAL segments and
// the temp files it lands whole files through). *os.File satisfies it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// FS is the set of filesystem operations the durable store performs.
// Implementations must be safe for concurrent use.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Remove(path string) error
	Rename(oldPath, newPath string) error
	Truncate(path string, size int64) error
	Stat(path string) (fs.FileInfo, error)
	// OpenFile supports the store's two modes: create-exclusive for fresh
	// WAL segments and write-append for reopening the active segment.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a unique temp file in dir from pattern, as
	// os.CreateTemp does.
	CreateTemp(dir, pattern string) (File, error)
	// SyncDir flushes directory metadata so creates and renames are
	// durable.
	SyncDir(dir string) error
}

// Or returns f, or the OS filesystem when f is nil.
func Or(f FS) FS {
	if f == nil {
		return OS{}
	}
	return f
}

// OS implements FS on the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) ReadDir(path string) ([]fs.DirEntry, error)   { return os.ReadDir(path) }
func (OS) Remove(path string) error                     { return os.Remove(path) }
func (OS) Rename(oldPath, newPath string) error         { return os.Rename(oldPath, newPath) }
func (OS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }
func (OS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
