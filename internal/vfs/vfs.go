// Package vfs is the filesystem seam under every durability-critical
// writer in the system: the sweep manifest, the service job spool, and
// journal files opened through journal.CreateFile. Production code
// runs on OS (direct os.* calls, zero indirection cost beyond an
// interface dispatch); the chaos engine (internal/chaos) substitutes a
// fault-injecting implementation that models short writes, fsync
// failures, ENOSPC, torn renames and crash-points without patching any
// call site.
//
// The interface is deliberately the small set of operations the
// durability spine actually uses — not a general filesystem. Adding an
// operation here means adding it to the fault matrix in
// internal/chaos, so keep it minimal.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is an open file handle. The durability-relevant calls — Write,
// Sync, Close, Truncate — are exactly the ones a crash can interleave
// with, so a fault FS can perturb each independently.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file to stable storage. Callers MUST treat a
	// Sync error as a hard write failure: the bytes may or may not be
	// durable, and continuing to append would build on quicksand.
	Sync() error
	// Truncate cuts the file to size (the journal salvage path).
	Truncate(size int64) error
}

// FS is the filesystem operation set the durability spine uses.
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// OpenFile is the general open (the manifest resume path needs
	// O_RDWR|O_CREATE).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath — the commit
	// point of every temp-and-rename write.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (ignoring whether it exists is the
	// caller's choice).
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Glob lists paths matching a pattern (spool recovery).
	Glob(pattern string) ([]string, error)
}

// OS is the production FS: direct os.* calls.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Open implements FS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Glob implements FS.
func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// Default returns fsys, or OS when fsys is nil — the idiom every
// consumer uses to make the seam optional.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}
