// Package vfs abstracts the filesystem operations behind the serving
// stack's persistence layers — the snapshot store, the live-corpus WAL, and
// compaction — so tests can swap the real disk for a fault-injecting one.
// The production implementation (OS) delegates straight to package os; the
// Faulty wrapper injects EIO/ENOSPC errors, short writes, failed fsyncs, and
// crash-at-step failures at any chosen operation, which is how the
// crash-consistency harness walks every injection point of the append and
// compaction paths. WriteAtomic and WriteSynced are the one protocol the
// layers use to write a whole file durably.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the persistence layers use. WAL appends
// need Write+Sync+Truncate+Seek (rollback restores the acked prefix);
// snapshot writes need Write+Sync before the commit rename; recovery reads
// need Read+Seek.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file size without moving the offset.
	Truncate(size int64) error
}

// FS is the filesystem interface threaded through the store and live-corpus
// layers. Every durability-relevant operation goes through it, so a Faulty
// implementation observes — and can fail — each step of an append, upgrade,
// or compaction.
type FS interface {
	// OpenFile opens with os.OpenFile semantics (flag is os.O_*).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temporary file with os.CreateTemp semantics.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	// Link hardlinks oldname to newname (upgrade adopts a frozen snapshot).
	Link(oldname, newname string) error
	// SyncDir fsyncs a directory so renames within it are durable.
	SyncDir(name string) error
}

// Open opens name read-only on fsys.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// WriteAtomic replaces path with the bytes write produces: a temp file
// (CreateTemp with pattern, in path's directory) is written, fsynced,
// closed and renamed over path, then the directory is fsynced. A crash or
// fault leaves either the old file or the new one, never a torn one, and
// any error before the rename removes the temp file. A nil return means
// the new bytes and their directory entry are durable.
func WriteAtomic(fsys FS, path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(dir)
}

// WriteSynced creates (or truncates) path, copies r into it (nothing when r
// is nil), and fsyncs and closes it. It is not atomic — a fault can leave a
// partial file — so callers use it inside a directory that is not yet
// committed (a live directory before its manifest lands), where a partial
// file is never read.
func WriteSynced(fsys FS, path string, r io.Reader) error {
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if r != nil {
		_, err = io.Copy(f, r)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OS is the production filesystem: every call delegates to package os.
var OS FS = osFS{}

// IsOS reports whether fsys is the real filesystem — callers that can serve
// a file faster outside the FS interface (mmap) use it to keep the fast path
// while staying injectable under test.
func IsOS(fsys FS) bool {
	_, ok := fsys.(osFS)
	return ok
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Link(oldname, newname string) error           { return os.Link(oldname, newname) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
