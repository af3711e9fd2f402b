package ckpt

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"syscall"
	"testing"

	"nasgo/internal/fsim"
)

// renameFailFS fails every Rename, to drive AtomicWriteFS's cleanup path.
type renameFailFS struct{ fsim.FS }

func (renameFailFS) Rename(oldpath, newpath string) error {
	return &fs.PathError{Op: "rename", Path: newpath, Err: syscall.EIO}
}

// TestAtomicWriteRenameFailureCleansUpDurably: when the rename fails, the
// temp file is removed AND the removal is made durable with a directory
// sync, so a crash right after cannot resurrect the orphan.
func TestAtomicWriteRenameFailureCleansUpDurably(t *testing.T) {
	mem := fsim.NewMemFS()
	if err := mem.MkdirAll("/s", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := mem.SyncDir("/s"); err != nil {
		t.Fatal(err)
	}
	fsys := renameFailFS{mem}
	err := AtomicWriteFS(fsys, "/s/target", func(w io.Writer) error {
		_, err := w.Write([]byte("doomed"))
		return err
	})
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO from rename, got %v", err)
	}
	if IsTransient(err) != true {
		t.Fatal("rename EIO must classify transient")
	}
	// Visible namespace: no temp file, no target.
	entries, err := mem.ReadDir("/s")
	if err != nil || len(entries) != 0 {
		t.Fatalf("directory not clean after failed rename: %v, %v", entries, err)
	}
	// Durable namespace: the cleanup survived a power cut.
	img := mem.CrashImage()
	entries, err = img.ReadDir("/s")
	if err != nil || len(entries) != 0 {
		t.Fatalf("orphan temp file resurrected after crash: %v, %v", entries, err)
	}
}

// TestAtomicWriteFailedWriteRemovesTemp: a write-callback failure leaves the
// target untouched and the temp file gone from the visible namespace.
func TestAtomicWriteFailedWriteRemovesTemp(t *testing.T) {
	mem := fsim.NewMemFS()
	mem.MkdirAll("/s", 0o755)
	mem.SyncDir("/s")
	if err := WriteFileFS(mem, "/s/target", "testmag0", 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWriteFS(mem, "/s/target", func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped callback error, got %v", err)
	}
	entries, _ := mem.ReadDir("/s")
	if len(entries) != 1 || entries[0].Name() != "target" {
		t.Fatalf("temp not cleaned: %v", entries)
	}
	if payload, _, err := ReadFileFS(mem, "/s/target", "testmag0", 1); err != nil || string(payload) != "old" {
		t.Fatalf("target perturbed by failed write: %q, %v", payload, err)
	}
}

// TestAtomicWriteSyncErrorKeepsTarget: when the temp file's fsync fails, the
// write surfaces a transient error that claims no corruption, the target
// keeps its previous bytes and no temp file is left behind.
func TestAtomicWriteSyncErrorKeepsTarget(t *testing.T) {
	mem := fsim.NewMemFS()
	mem.MkdirAll("/s", 0o755)
	mem.SyncDir("/s")
	if err := WriteFileFS(mem, "/s/target", "testmag0", 1, []byte("old")); err != nil {
		t.Fatal(err)
	}
	before, err := mem.ReadFile("/s/target")
	if err != nil {
		t.Fatal(err)
	}
	err = WriteFileFS(fsim.NewFaultFS(mem, fsim.Faults{SyncErrEvery: 1}), "/s/target", "testmag0", 1, []byte("new payload"))
	if err == nil || !IsTransient(err) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("want a transient, non-corrupt error, got %v", err)
	}
	if after, err := mem.ReadFile("/s/target"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("target perturbed by a failed sync: %q, %v", after, err)
	}
	if entries, err := mem.ReadDir("/s"); err != nil || len(entries) != 1 || entries[0].Name() != "target" {
		t.Fatalf("temp file left behind: %v, %v", entries, err)
	}
}

// TestErrorClassification: structural damage wraps ErrCorrupt and is not
// transient; injected device errors keep their errno, satisfy IsTransient,
// and never claim corruption.
func TestErrorClassification(t *testing.T) {
	mem := fsim.NewMemFS()
	mem.MkdirAll("/s", 0o755)
	mem.SyncDir("/s")
	if err := WriteFileFS(mem, "/s/c", "testmag0", 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, err := mem.ReadFile("/s/c")
	if err != nil {
		t.Fatal(err)
	}

	writeRaw := func(b []byte) {
		f, err := mem.Create("/s/c")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	corruptions := map[string][]byte{
		"truncated header":  raw[:headerLen-1],
		"truncated payload": raw[:len(raw)-1],
		"trailing garbage":  append(append([]byte{}, raw...), 'x'),
		"bad magic":         append([]byte("WRONGMAG"), raw[8:]...),
		"flipped payload": func() []byte {
			b := append([]byte{}, raw...)
			b[len(b)-1] ^= 0xFF
			return b
		}(),
	}
	for name, b := range corruptions {
		writeRaw(b)
		_, _, err := ReadFileFS(mem, "/s/c", "testmag0", 1)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
		if IsTransient(err) {
			t.Errorf("%s: corruption must not classify transient: %v", name, err)
		}
	}

	// A future format version is neither corrupt nor transient.
	writeRaw(raw)
	if err := WriteFileFS(mem, "/s/v9", "testmag0", 9, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFileFS(mem, "/s/v9", "testmag0", 1); err == nil || errors.Is(err, ErrCorrupt) || IsTransient(err) {
		t.Errorf("future version misclassified: %v", err)
	}

	// Injected device errors: transient, never corrupt.
	for name, f := range map[string]fsim.Faults{
		"EIO":    {WriteErrEvery: 1},
		"ENOSPC": {DiskBudget: 4},
	} {
		ffs := fsim.NewFaultFS(mem, f)
		err := WriteFileFS(ffs, "/s/w", "testmag0", 1, []byte("a longer payload than the budget"))
		if err == nil || !IsTransient(err) {
			t.Errorf("%s: want transient, got %v", name, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: device error must not claim corruption: %v", name, err)
		}
	}
	if err := WriteFileFS(fsim.NewFaultFS(mem, fsim.Faults{DiskBudget: 4}), "/s/w", "testmag0", 1, []byte("payload")); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("ENOSPC errno lost: %v", err)
	}
}

// TestWriteFileFSMemOSEquivalent: the container bytes are identical whether
// written through MemFS or the real filesystem — the seam adds nothing.
func TestWriteFileFSMemOSEquivalent(t *testing.T) {
	mem := fsim.NewMemFS()
	mem.MkdirAll("/s", 0o755)
	payload := []byte("equivalence payload")
	if err := WriteFileFS(mem, "/s/c", "testmag0", 3, payload); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	osPath := dir + "/c"
	if err := WriteFileFS(fsim.OS, osPath, "testmag0", 3, payload); err != nil {
		t.Fatal(err)
	}
	a, err := mem.ReadFile("/s/c")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fsim.OS.ReadFile(osPath)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%x", a) != fmt.Sprintf("%x", b) {
		t.Fatal("MemFS and OS container bytes differ")
	}
}
