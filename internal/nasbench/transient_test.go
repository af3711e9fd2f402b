package nasbench

import (
	"bytes"
	"errors"
	"fmt"
	"syscall"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
)

// eioFS fails every read with EIO; writes pass through. The shape of a
// flaky device that still accepts data.
type eioFS struct{ fsim.FS }

func (e eioFS) ReadFile(name string) ([]byte, error) {
	return nil, fmt.Errorf("fsim: read %s: %w", name, syscall.EIO)
}

// TestShortTransientNeverCorrupt is the error-taxonomy satellite: EIO and
// ENOSPC on any builder path classify as ckpt.IsTransient — retryable,
// never ckpt.ErrCorrupt, never quarantine — and a retry on healed
// hardware completes to the reference bytes.
func TestShortTransientNeverCorrupt(t *testing.T) {
	_, ref := buildNanoTable(t)

	t.Run("full-disk", func(t *testing.T) {
		mem := fsim.NewMemFS()
		ffs := fsim.NewFaultFS(mem, fsim.Faults{DiskBudget: 512})
		_, _, err := BuildOrLoad(nanoBuild(ffs, "/bench"))
		if err == nil {
			t.Fatal("build on a 512-byte disk succeeded")
		}
		if !ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("full disk classified wrong: %v", err)
		}
		// The disk heals; the same store must finish from what survived.
		if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
			t.Fatalf("retry after ENOSPC: %v", err)
		}
		raw, err := mem.ReadFile("/bench/" + TableFile)
		if err != nil || !bytes.Equal(raw, ref) {
			t.Fatalf("post-retry artifact differs (read err %v)", err)
		}
	})

	t.Run("write-eio", func(t *testing.T) {
		mem := fsim.NewMemFS()
		ffs := fsim.NewFaultFS(mem, fsim.Faults{WriteErrEvery: 5})
		_, _, err := BuildOrLoad(nanoBuild(ffs, "/bench"))
		if err == nil {
			t.Fatal("build under periodic EIO succeeded")
		}
		if !ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("write EIO classified wrong: %v", err)
		}
		if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
			t.Fatalf("retry after EIO: %v", err)
		}
		raw, err := mem.ReadFile("/bench/" + TableFile)
		if err != nil || !bytes.Equal(raw, ref) {
			t.Fatalf("post-retry artifact differs (read err %v)", err)
		}
	})

	t.Run("read-eio", func(t *testing.T) {
		mem := fsim.NewMemFS()
		if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
			t.Fatal(err)
		}
		before, err := mem.ReadFile("/bench/" + TableFile)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadTableFS(eioFS{mem}, "/bench/"+TableFile); !ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("read EIO classified wrong: %v", err)
		}
		// A transient read during recovery must abort retryable — it must
		// NOT quarantine the (perfectly good) artifact underneath.
		if _, _, err := BuildOrLoad(nanoBuild(eioFS{mem}, "/bench")); !ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("build over read EIO classified wrong: %v", err)
		}
		after, err := mem.ReadFile("/bench/" + TableFile)
		if err != nil || !bytes.Equal(before, after) {
			t.Fatalf("transient read perturbed the artifact (read err %v)", err)
		}
	})
}
