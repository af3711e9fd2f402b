package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nasgo/internal/fsim"
)

const testMagic = "testmagc"

func writeSample(t *testing.T, payload []byte) (path string, raw []byte) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "sample")
	if err := WriteFileFS(fsim.OS, path, testMagic, 3, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("the quick brown checkpoint payload")
	path, raw := writeSample(t, payload)
	if len(raw) != headerLen+len(payload) {
		t.Fatalf("file is %d bytes, want header %d + payload %d", len(raw), headerLen, len(payload))
	}
	got, ver, err := ReadFileFS(fsim.OS, path, testMagic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 3 {
		t.Fatalf("version = %d, want 3", ver)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
	// An empty payload is legal and round trips.
	if err := WriteFileFS(fsim.OS, path, testMagic, 1, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err = ReadFileFS(fsim.OS, path, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty payload came back as %q", got)
	}
}

// TestRejectsTruncationAtEveryByte: any prefix of a valid container must be
// rejected with a descriptive error — never decoded, never a panic.
func TestRejectsTruncationAtEveryByte(t *testing.T) {
	_, raw := writeSample(t, []byte("payload bytes under test"))
	bad := filepath.Join(t.TempDir(), "truncated")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(bad, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFileFS(fsim.OS, bad, testMagic, 5)
		if err == nil {
			t.Fatalf("file truncated to %d/%d bytes was accepted", n, len(raw))
		}
		want := "truncated payload"
		if n < headerLen {
			want = "truncated header"
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("truncation to %d bytes: error %q does not mention %q", n, err, want)
		}
	}
}

// TestRejectsPayloadCorruption: flipping any payload byte fails the
// checksum.
func TestRejectsPayloadCorruption(t *testing.T) {
	payload := []byte("checksummed")
	_, raw := writeSample(t, payload)
	bad := filepath.Join(t.TempDir(), "flipped")
	for i := headerLen; i < len(raw); i++ {
		flip := append([]byte(nil), raw...)
		flip[i] ^= 0x40
		if err := os.WriteFile(bad, flip, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFileFS(fsim.OS, bad, testMagic, 5)
		if err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("payload byte %d flipped: got %v, want checksum mismatch", i, err)
		}
	}
}

func TestRejectsHeaderProblems(t *testing.T) {
	_, raw := writeSample(t, []byte("header cases"))
	bad := filepath.Join(t.TempDir(), "bad")
	mutate := func(f func(b []byte) []byte) error {
		b := f(append([]byte(nil), raw...))
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFileFS(fsim.OS, bad, testMagic, 5)
		return err
	}

	if err := mutate(func(b []byte) []byte { copy(b, "wrongmgc"); return b }); err == nil ||
		!strings.Contains(err.Error(), "magic") {
		t.Fatalf("wrong magic: %v", err)
	}
	// Version above maxVersion (a future format) is refused, not misread.
	if err := mutate(func(b []byte) []byte { b[11] = 99; return b }); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
	// Version 0 can only come from corruption.
	if err := mutate(func(b []byte) []byte { b[8], b[9], b[10], b[11] = 0, 0, 0, 0; return b }); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("version zero: %v", err)
	}
	if err := mutate(func(b []byte) []byte { return append(b, "junk"...) }); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage: %v", err)
	}
}

func TestMagicMustBeEightBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := WriteFileFS(fsim.OS, path, "short", 1, nil); err == nil || !strings.Contains(err.Error(), "8 bytes") {
		t.Fatalf("short magic on write: %v", err)
	}
	if _, _, err := ReadFileFS(fsim.OS, path, "toolongmagic", 1); err == nil || !strings.Contains(err.Error(), "8 bytes") {
		t.Fatalf("long magic on read: %v", err)
	}
}

// TestAtomicWriteCrashLeavesTargetIntact simulates a writer dying mid-write
// (the walltime-expiry scenario): the previous file must survive untouched
// and no temp litter may remain.
func TestAtomicWriteCrashLeavesTargetIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	if err := os.WriteFile(path, []byte("previous complete file"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("allocation walltime expired")
	err := AtomicWriteFS(fsim.OS, path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("half-writ")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "previous complete file" {
		t.Fatalf("crashed write disturbed the target: %q", got)
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestAtomicWriteReplaces: a successful write replaces the old content and
// leaves exactly the target in the directory.
func TestAtomicWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "target")
	for _, content := range []string{"first", "second, longer content", "3rd"} {
		content := content
		if err := AtomicWriteFS(fsim.OS, path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != content {
			t.Fatalf("read back %q, want %q", got, content)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory not clean after writes: %v", entries)
	}
}

// TestSyncDir: the helper succeeds on a real directory and reports a
// descriptive error for a missing one or a non-directory. (Power-loss
// durability itself is untestable here; this pins the API contract that
// AtomicWriteFS relies on.)
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDirFS(fsim.OS, dir); err != nil {
		t.Fatalf("SyncDir on a real directory: %v", err)
	}
	if err := SyncDirFS(fsim.OS, filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir on a missing directory succeeded")
	}
	path := filepath.Join(dir, "file")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Opening a plain file and fsyncing it is legal on POSIX, so SyncDir
	// on a file may succeed; what matters is it never panics and the
	// atomic-write path still round-trips afterwards.
	_ = SyncDirFS(fsim.OS, path)
	if err := AtomicWriteFS(fsim.OS, filepath.Join(dir, "target"), func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatalf("AtomicWriteFS after SyncDirFS probing: %v", err)
	}
}
