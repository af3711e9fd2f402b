// Op recording and replay: the mechanism behind crash-point enumeration.
//
// A torture harness needs to simulate a power cut at every mutating
// filesystem operation of a workload. Re-running the whole workload once
// per crash point is prohibitive when the workload includes real neural-
// network training, so the harness splits it: run the workload ONCE over a
// RecordFS, which captures every mutating operation with its exact bytes,
// then Replay the captured tape into a fresh FaultFS{CrashAtOp: k} for
// each k. Replay is pure byte shuffling — micro-seconds per crash point —
// and reproduces the workload's persistence behavior exactly, because the
// tape is the workload's own operation stream. CrashPoints and CrashImageAt
// are that enumeration; MemFS.TreeDigest lets a harness memoize its work by
// surviving state.
package fsim

import (
	"errors"
	"fmt"
	"io/fs"
)

// OpKind enumerates recorded mutating operations.
type OpKind int

const (
	OpCreate OpKind = iota
	OpCreateTemp
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpMkdirAll
	OpSyncDir
)

// Op is one recorded mutating operation. File-level ops (write/sync/close)
// reference the file by the handle index assigned at its create.
type Op struct {
	Kind OpKind
	// Path is the created/removed/synced path, the rename destination, or
	// the CreateTemp dir.
	Path string
	// Src is the rename source or the CreateTemp pattern.
	Src string
	// Handle indexes the file (creation order) for write/sync/close.
	Handle int
	// Name is the path the recording filesystem gave the created file
	// (OpCreate/OpCreateTemp) — the key Replay uses to remap rename
	// sources when the destination picks different temp names.
	Name string
	// Data is the written bytes (OpWrite).
	Data []byte
	// Perm is the MkdirAll permission.
	Perm fs.FileMode
}

// RecordFS wraps a base FS and appends every mutating operation to a tape.
// Reads pass through unrecorded. Not safe for concurrent use — record
// single-writer workloads (the campaign store is one by design).
type RecordFS struct {
	base    FS
	ops     []Op
	handles int
}

// NewRecordFS wraps base with an empty tape.
func NewRecordFS(base FS) *RecordFS { return &RecordFS{base: base} }

// Ops returns the recorded tape.
func (r *RecordFS) Ops() []Op { return r.ops }

func (r *RecordFS) Create(name string) (File, error) {
	f, err := r.base.Create(name)
	if err != nil {
		return nil, err
	}
	h := r.handles
	r.handles++
	r.ops = append(r.ops, Op{Kind: OpCreate, Path: name, Handle: h, Name: f.Name()})
	return &recordFile{r: r, base: f, handle: h}, nil
}

func (r *RecordFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := r.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	h := r.handles
	r.handles++
	r.ops = append(r.ops, Op{Kind: OpCreateTemp, Path: dir, Src: pattern, Handle: h, Name: f.Name()})
	return &recordFile{r: r, base: f, handle: h}, nil
}

func (r *RecordFS) Open(name string) (File, error)             { return r.base.Open(name) }
func (r *RecordFS) ReadFile(name string) ([]byte, error)       { return r.base.ReadFile(name) }
func (r *RecordFS) ReadDir(name string) ([]fs.DirEntry, error) { return r.base.ReadDir(name) }
func (r *RecordFS) Stat(name string) (fs.FileInfo, error)      { return r.base.Stat(name) }

func (r *RecordFS) Rename(oldpath, newpath string) error {
	if err := r.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	r.ops = append(r.ops, Op{Kind: OpRename, Path: newpath, Src: oldpath})
	return nil
}

func (r *RecordFS) Remove(name string) error {
	if err := r.base.Remove(name); err != nil {
		return err
	}
	r.ops = append(r.ops, Op{Kind: OpRemove, Path: name})
	return nil
}

func (r *RecordFS) MkdirAll(name string, perm fs.FileMode) error {
	if err := r.base.MkdirAll(name, perm); err != nil {
		return err
	}
	r.ops = append(r.ops, Op{Kind: OpMkdirAll, Path: name, Perm: perm})
	return nil
}

func (r *RecordFS) SyncDir(dir string) error {
	if err := r.base.SyncDir(dir); err != nil {
		return err
	}
	r.ops = append(r.ops, Op{Kind: OpSyncDir, Path: dir})
	return nil
}

// recordFile tapes writes/syncs/closes of one file.
type recordFile struct {
	r      *RecordFS
	base   File
	handle int
}

func (f *recordFile) Name() string { return f.base.Name() }

func (f *recordFile) Read(p []byte) (int, error) { return f.base.Read(p) }

func (f *recordFile) Write(p []byte) (int, error) {
	n, err := f.base.Write(p)
	if n > 0 {
		f.r.ops = append(f.r.ops, Op{Kind: OpWrite, Handle: f.handle,
			Data: append([]byte(nil), p[:n]...)})
	}
	return n, err
}

func (f *recordFile) Sync() error {
	if err := f.base.Sync(); err != nil {
		return err
	}
	f.r.ops = append(f.r.ops, Op{Kind: OpSync, Handle: f.handle})
	return nil
}

func (f *recordFile) Close() error {
	if err := f.base.Close(); err != nil {
		return err
	}
	f.r.ops = append(f.r.ops, Op{Kind: OpClose, Handle: f.handle})
	return nil
}

// Replay applies a recorded tape to dst, stopping at the first error
// (under a FaultFS{CrashAtOp: k} destination that is the simulated power
// cut). It returns the number of tape entries applied and the stopping
// error (nil when the whole tape applied). Paths the recording filesystem
// assigned (temp names) are remapped to the destination's equivalents, so
// tapes replay cleanly onto filesystems whose temp naming differs.
func Replay(dst FS, ops []Op) (applied int, err error) {
	files := map[int]File{}
	// nameMap translates recording-side paths to destination-side paths.
	nameMap := map[string]string{}
	remap := func(p string) string {
		if d, ok := nameMap[p]; ok {
			return d
		}
		return p
	}
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for i, op := range ops {
		var e error
		switch op.Kind {
		case OpCreate:
			var f File
			f, e = dst.Create(op.Path)
			if e == nil {
				files[op.Handle] = f
				nameMap[op.Name] = f.Name()
			}
		case OpCreateTemp:
			var f File
			f, e = dst.CreateTemp(op.Path, op.Src)
			if e == nil {
				files[op.Handle] = f
				nameMap[op.Name] = f.Name()
			}
		case OpWrite:
			if f := files[op.Handle]; f != nil {
				_, e = f.Write(op.Data)
			}
		case OpSync:
			if f := files[op.Handle]; f != nil {
				e = f.Sync()
			}
		case OpClose:
			if f := files[op.Handle]; f != nil {
				e = f.Close()
				delete(files, op.Handle)
			}
		case OpRename:
			e = dst.Rename(remap(op.Src), op.Path)
		case OpRemove:
			e = dst.Remove(remap(op.Path))
		case OpMkdirAll:
			e = dst.MkdirAll(op.Path, op.Perm)
		case OpSyncDir:
			e = dst.SyncDir(op.Path)
		}
		if e != nil {
			return i, e
		}
		applied = i + 1
	}
	return applied, nil
}

// CrashPoints returns how many mutating operations a clean replay of tape
// performs: the power-cut points 1..N a torture harness enumerates.
func CrashPoints(tape []Op) (int64, error) {
	probe := NewFaultFS(NewMemFS(), Faults{})
	if _, err := Replay(probe, tape); err != nil {
		return 0, fmt.Errorf("fsim: tape does not replay clean: %w", err)
	}
	return probe.Ops(), nil
}

// CrashImageAt replays tape onto an empty MemFS, cuts the power at mutating
// operation k (1-based) and returns the surviving bytes. With lies, file
// fsyncs before the cut are acknowledged but their pages dropped. A k the
// replay never reaches is an error.
func CrashImageAt(tape []Op, k int64, lies bool) (*MemFS, error) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, Faults{CrashAtOp: k, SyncLies: lies})
	if _, err := Replay(ffs, tape); !errors.Is(err, ErrCrashed) {
		return nil, fmt.Errorf("fsim: crash point %d: replay ended with %v, want power cut", k, err)
	}
	return mem.CrashImage(), nil
}
