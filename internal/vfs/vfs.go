// Package vfs abstracts the filesystem operations the storage engine
// depends on for durability: file creation, reads, writes, fsync, rename,
// remove, and directory sync. Production code uses Default, a thin
// passthrough to the os package; tests substitute a Fault wrapper that
// injects deterministic disk failures (failed fsyncs, torn writes, ENOSPC,
// read corruption) to prove the engine never acknowledges a write it could
// lose.
//
// The interface is intentionally small: it covers exactly the syscalls the
// WAL, manifest, sstable, and cleanup paths perform, nothing more.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the handle type returned by FS. It supports the union of what
// the engine's writers (WAL, sstable flush) and readers (sstable,
// manifest) need from an open file.
type File interface {
	io.ReaderAt
	io.Writer
	io.Closer

	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Seek repositions the write offset; the WAL uses it to roll back
	// partially appended records.
	Seek(offset int64, whence int) (int64, error)
	// Truncate changes the file size; the WAL uses it with Seek to
	// discard a torn append.
	Truncate(size int64) error
	// Stat reports file metadata (primarily size).
	Stat() (fs.FileInfo, error)
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the engine performs durability-critical
// operations through. All paths are OS paths (absolute or relative), not
// io/fs slash paths.
type FS interface {
	// Create opens path for reading and writing, creating it if absent
	// and truncating it otherwise.
	Create(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(path string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the directory's entries.
	ReadDir(path string) ([]fs.DirEntry, error)
	// Stat reports metadata for the named file.
	Stat(path string) (fs.FileInfo, error)
	// ReadFile returns the full contents of the named file.
	ReadFile(path string) ([]byte, error)
	// SyncDir fsyncs the directory so a preceding rename or create in it
	// is durable. Filesystems that do not support fsync on directories
	// (EINVAL/ENOTSUP) are treated as success.
	SyncDir(path string) error
}

// ErrRenamed marks a WriteFileAtomic failure that came after its rename:
// path holds the new data, but its directory entry may not be durable.
var ErrRenamed = errors.New("vfs: file renamed into place, directory sync failed")

// WriteFileAtomic replaces path with data so that a crash leaves either the
// old file or the complete new one, never a torn one: it creates path.tmp,
// writes data in one call, fsyncs and closes it, renames it over path and
// fsyncs the directory. On an error path keeps its old contents, unless the
// error wraps ErrRenamed; a stale path.tmp may be left behind.
//
// The directory fsync also makes durable every entry created in the
// directory before it. The engine relies on that: a new table's file is
// fsynced but its directory entry is not, and it becomes durable through the
// SyncDir of the manifest write that names it, which lives in the same
// directory.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("%w: %w", ErrRenamed, err)
	}
	return nil
}

// Default is the production filesystem: a passthrough to the os package.
var Default FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Stat(path string) (fs.FileInfo, error)      { return os.Stat(path) }
func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		// Some filesystems do not support fsync on directories; the
		// rename itself is the best durability available there.
		return nil
	}
	return err
}
