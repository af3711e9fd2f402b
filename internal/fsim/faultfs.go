package fsim

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"syscall"
)

// Sentinel errors for injected conditions. Injected transient errors also
// wrap the matching syscall errno (syscall.EIO, syscall.ENOSPC), so
// callers classify them exactly like real ones via errors.Is.
var (
	// ErrInjected marks any fault manufactured by a FaultFS.
	ErrInjected = errors.New("fsim: injected fault")
	// ErrCrashed is returned by every operation at and after the simulated
	// power cut; the surviving bytes are what the wrapped MemFS's
	// CrashImage reports.
	ErrCrashed = errors.New("fsim: simulated power cut")
)

// Faults is a deterministic fault schedule: every field counts operations
// or bytes, so a single-writer replay injects the identical faults. The
// zero value injects nothing: a FaultFS over an empty schedule is
// operation-for-operation identical to its base filesystem (the campaign
// zero-fault pin holds this, mirroring the zero-value hpc.FaultModel rule).
// Torn files come from DiskBudget's short write and from MemFS.CrashImage.
type Faults struct {
	// WriteErrEvery fails every Nth Write with EIO (deterministic,
	// counter-based; 0 disables). SyncErrEvery does the same for file
	// Sync/SyncDir.
	WriteErrEvery int64
	SyncErrEvery  int64

	// DiskBudget, when > 0, is the total number of bytes the filesystem
	// accepts before every further write (and file creation) fails with
	// ENOSPC. The final write is short, like a real full disk.
	DiskBudget int64

	// SyncLies makes file Sync report success without making bytes
	// durable — the lying-firmware case. Only observable over a MemFS
	// base, where CrashImage then drops the unsynced pages. Directory
	// syncs stay honest.
	SyncLies bool

	// CrashAtOp simulates a power cut at the Nth mutating operation
	// (1-based): the operation does not happen, and every operation from
	// there on fails with ErrCrashed. 0 disables.
	CrashAtOp int64
}

// FaultFS wraps a base FS and injects faults per a Faults schedule.
// Mutating operations — file creation, every Write, every Sync, rename,
// remove, mkdir, directory sync — are counted; CrashAtOp indexes into
// that count. Reads are never faulted (a read-side fault cannot corrupt
// durable state) but do fail after the crash point.
type FaultFS struct {
	base FS
	f    Faults

	mu       sync.Mutex
	ops      int64
	writes   int64
	syncs    int64
	written  int64
	injected int64
	crashed  bool
}

// NewFaultFS wraps base with the given fault schedule.
func NewFaultFS(base FS, f Faults) *FaultFS {
	return &FaultFS{base: base, f: f}
}

// Ops returns the number of mutating operations attempted so far — the
// crash-point space a torture harness enumerates over.
func (ffs *FaultFS) Ops() int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.ops
}

// Injected returns how many faults have been injected.
func (ffs *FaultFS) Injected() int64 {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.injected
}

// Crashed reports whether the simulated power cut has fired.
func (ffs *FaultFS) Crashed() bool {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.crashed
}

// injectedErr carries an injected fault; it unwraps to both ErrInjected
// and the underlying errno so errors.Is works for either.
type injectedErr struct {
	op, path string
	cause    error
}

func (e *injectedErr) Error() string {
	return fmt.Sprintf("fsim: injected %v: %s %s", e.cause, e.op, e.path)
}

func (e *injectedErr) Unwrap() []error { return []error{ErrInjected, e.cause} }

func crashErr(op, path string) error {
	return fmt.Errorf("fsim: %s %s: %w", op, path, ErrCrashed)
}

// checkRead gates non-mutating operations: they pass untouched unless the
// power has been cut.
func (ffs *FaultFS) checkRead(op, path string) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if ffs.crashed {
		return crashErr(op, path)
	}
	return nil
}

// mutate accounts one mutating operation and decides whether to cut power.
func (ffs *FaultFS) mutate(op, path string) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	return ffs.mutateLocked(op, path)
}

func (ffs *FaultFS) mutateLocked(op, path string) error {
	if ffs.crashed {
		return crashErr(op, path)
	}
	ffs.ops++
	if ffs.f.CrashAtOp > 0 && ffs.ops >= ffs.f.CrashAtOp {
		ffs.crashed = true
		return crashErr(op, path)
	}
	return nil
}

// full reports whether the disk budget is exhausted.
func (ffs *FaultFS) fullLocked() bool {
	return ffs.f.DiskBudget > 0 && ffs.written >= ffs.f.DiskBudget
}

func (ffs *FaultFS) Create(name string) (File, error) {
	if err := ffs.createGate("create", name); err != nil {
		return nil, err
	}
	f, err := ffs.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{ffs: ffs, base: f}, nil
}

func (ffs *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := ffs.createGate("createtemp", dir); err != nil {
		return nil, err
	}
	f, err := ffs.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{ffs: ffs, base: f}, nil
}

// createGate is the mutate gate for file creation, which additionally
// fails with ENOSPC on a full disk.
func (ffs *FaultFS) createGate(op, path string) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if err := ffs.mutateLocked(op, path); err != nil {
		return err
	}
	if ffs.fullLocked() {
		ffs.injected++
		return &injectedErr{op: op, path: path, cause: syscall.ENOSPC}
	}
	return nil
}

func (ffs *FaultFS) Open(name string) (File, error) {
	if err := ffs.checkRead("open", name); err != nil {
		return nil, err
	}
	f, err := ffs.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{ffs: ffs, base: f}, nil
}

func (ffs *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := ffs.checkRead("readfile", name); err != nil {
		return nil, err
	}
	return ffs.base.ReadFile(name)
}

func (ffs *FaultFS) Rename(oldpath, newpath string) error {
	if err := ffs.mutate("rename", newpath); err != nil {
		return err
	}
	return ffs.base.Rename(oldpath, newpath)
}

func (ffs *FaultFS) Remove(name string) error {
	if err := ffs.mutate("remove", name); err != nil {
		return err
	}
	return ffs.base.Remove(name)
}

func (ffs *FaultFS) MkdirAll(name string, perm fs.FileMode) error {
	if err := ffs.mutate("mkdir", name); err != nil {
		return err
	}
	return ffs.base.MkdirAll(name, perm)
}

func (ffs *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := ffs.checkRead("readdir", name); err != nil {
		return nil, err
	}
	return ffs.base.ReadDir(name)
}

func (ffs *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := ffs.checkRead("stat", name); err != nil {
		return nil, err
	}
	return ffs.base.Stat(name)
}

func (ffs *FaultFS) SyncDir(dir string) error {
	if err := ffs.syncGate("syncdir", dir); err != nil {
		return err
	}
	return ffs.base.SyncDir(dir)
}

// syncGate is the mutate gate for file Sync and SyncDir, adding the
// counter-based SyncErrEvery injection.
func (ffs *FaultFS) syncGate(op, path string) error {
	ffs.mu.Lock()
	defer ffs.mu.Unlock()
	if err := ffs.mutateLocked(op, path); err != nil {
		return err
	}
	ffs.syncs++
	if ffs.f.SyncErrEvery > 0 && ffs.syncs%ffs.f.SyncErrEvery == 0 {
		ffs.injected++
		return &injectedErr{op: op, path: path, cause: syscall.EIO}
	}
	return nil
}

// faultFile wraps an open file, faulting its writes and syncs.
type faultFile struct {
	ffs  *FaultFS
	base File
}

func (f *faultFile) Name() string { return f.base.Name() }

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.ffs.checkRead("read", f.base.Name()); err != nil {
		return 0, err
	}
	return f.base.Read(p)
}

// Write is one mutating operation per call. Injection order: power cut,
// counter EIO, then the disk budget — which, like a real full disk,
// persists a prefix before ENOSPC.
func (f *faultFile) Write(p []byte) (int, error) {
	ffs := f.ffs
	ffs.mu.Lock()
	name := f.base.Name()
	if err := ffs.mutateLocked("write", name); err != nil {
		ffs.mu.Unlock()
		return 0, err
	}
	ffs.writes++
	if ffs.f.WriteErrEvery > 0 && ffs.writes%ffs.f.WriteErrEvery == 0 {
		ffs.injected++
		ffs.mu.Unlock()
		return 0, &injectedErr{op: "write", path: name, cause: syscall.EIO}
	}
	n, fullErr := len(p), error(nil)
	if avail := ffs.f.DiskBudget - ffs.written; ffs.f.DiskBudget > 0 && int64(n) > avail {
		ffs.injected++
		n = int(avail)
		fullErr = &injectedErr{op: "write", path: name, cause: syscall.ENOSPC}
	}
	ffs.written += int64(n)
	ffs.mu.Unlock()

	wrote, err := f.base.Write(p[:n])
	if err != nil {
		return wrote, err
	}
	return wrote, fullErr
}

// Sync is one mutating operation. In SyncLies mode it reports success
// without asking the base filesystem to persist anything.
func (f *faultFile) Sync() error {
	if err := f.ffs.syncGate("sync", f.base.Name()); err != nil {
		return err
	}
	if f.ffs.f.SyncLies {
		return nil
	}
	return f.base.Sync()
}

func (f *faultFile) Close() error {
	if err := f.ffs.checkRead("close", f.base.Name()); err != nil {
		return err
	}
	return f.base.Close()
}
