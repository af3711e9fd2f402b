// Package fsim is the filesystem seam under nasgo's durability stack.
//
// Every crash-consistency claim in this repo (atomic checkpoint files,
// kill-anywhere campaign stores) ultimately rests on a handful of
// filesystem operations behaving: writes reaching the disk, fsync meaning
// what it says, rename being atomic. Nothing in a normal test run
// exercises the cases where they do not — torn writes, short writes,
// transient EIO, ENOSPC, firmware that acknowledges fsync and drops the
// pages anyway. fsim makes those cases injectable:
//
//   - FS is the small interface the durability-critical paths
//     (internal/ckpt, internal/modelio, internal/campaign's store) write
//     through instead of calling os.* directly.
//   - OS is the passthrough implementation; production behavior is
//     byte-for-byte what it was before the seam existed (the zero-fault
//     pin in internal/campaign holds this).
//   - MemFS is an in-memory filesystem that models durability explicitly:
//     file content and directory entries each have a "visible now" and a
//     "durable" version, advanced only by Sync and SyncDir. CrashImage
//     returns the filesystem a power cut would leave behind.
//   - FaultFS wraps any FS and injects faults on a deterministic schedule:
//     every-Nth EIO on writes or syncs, an ENOSPC byte budget whose last
//     write is short, fsync lies, and a power cut at an exact
//     mutating-operation index — the primitive the crash-point enumeration
//     harness (internal/campaign's torture tests) is built on.
package fsim

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface the durability paths need: sequential
// reads/writes, fsync, close, and the name for error messages.
type File interface {
	io.Reader
	io.Writer
	// Name returns the path the file was opened with.
	Name() string
	// Sync flushes the file's written bytes to stable storage.
	Sync() error
	Close() error
}

// FS is the filesystem seam. It mirrors the exact os.* surface the
// durability-critical writers use — nothing more — so a fault
// implementation has to model only the operations that matter for
// crash consistency.
type FS interface {
	// Create creates (truncating if present) a writable file.
	Create(name string) (File, error)
	// CreateTemp creates a new writable temp file in dir; pattern's last
	// "*" is replaced to make the name unique, exactly like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath. Durability of the
	// new directory entry additionally requires SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove deletes a file or empty directory.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat describes a file or directory.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making renames/creates/removes of its
	// entries durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS used by all production code paths.
var OS FS = osFS{}

// osFS forwards every call to the os package. It holds no state.
type osFS struct{}

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
