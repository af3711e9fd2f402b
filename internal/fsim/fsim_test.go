package fsim

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"syscall"
	"testing"
)

// atomicReplace runs the exact durability recipe ckpt.AtomicWriteFS uses —
// temp file, write, sync, close, rename, syncdir — against any FS.
func atomicReplace(t *testing.T, fsys FS, path string, payload []byte) error {
	t.Helper()
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// exerciseFS drives one FS through the operations the durability stack
// uses and checks the observable results. Shared by the OsFS and MemFS
// tests: the seam's two implementations must agree.
func exerciseFS(t *testing.T, fsys FS, root string) {
	t.Helper()
	sub := filepath.Join(root, "c01")
	if err := fsys.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(root); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sub, "meta.bin")
	if err := atomicReplace(t, fsys, path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(path)
	if err != nil || string(got) != "v1" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := atomicReplace(t, fsys, path, []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	if got, _ = fsys.ReadFile(path); string(got) != "v2-longer" {
		t.Fatalf("after replace: %q", got)
	}
	// Open + sequential read (the gob-decode access pattern).
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil || string(data) != "v2-longer" {
		t.Fatalf("Open read = %q, %v", data, err)
	}
	f.Close()
	// Stat file and dir; missing paths report fs.ErrNotExist.
	if fi, err := fsys.Stat(path); err != nil || fi.IsDir() || fi.Size() != 9 {
		t.Fatalf("Stat file: %+v, %v", fi, err)
	}
	if fi, err := fsys.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("Stat dir: %+v, %v", fi, err)
	}
	if _, err := fsys.Stat(filepath.Join(sub, "nope")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat missing: %v", err)
	}
	if _, err := fsys.ReadFile(filepath.Join(sub, "nope")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile missing: %v", err)
	}
	// ReadDir is sorted and sees only direct children.
	if err := atomicReplace(t, fsys, filepath.Join(sub, "a.bin"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	entries, err := fsys.ReadDir(sub)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "a.bin" || names[1] != "meta.bin" {
		t.Fatalf("ReadDir = %v", names)
	}
	if entries, err = fsys.ReadDir(root); err != nil || len(entries) != 1 || !entries[0].IsDir() || entries[0].Name() != "c01" {
		t.Fatalf("ReadDir root = %v, %v", entries, err)
	}
	// Remove.
	if err := fsys.Remove(filepath.Join(sub, "a.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(filepath.Join(sub, "a.bin")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after Remove: %v", err)
	}
}

func TestOsFSExercise(t *testing.T) { exerciseFS(t, OS, t.TempDir()) }

func TestMemFSExercise(t *testing.T) { exerciseFS(t, NewMemFS(), "/store") }

func TestMemFSDurability(t *testing.T) {
	m := NewMemFS()
	if err := m.MkdirAll("/s", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/s"); err != nil {
		t.Fatal(err)
	}

	// Written but unsynced content is dropped at the crash, even when the
	// directory entry is durable.
	f, err := m.Create("/s/unsynced")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("lost"))
	f.Close()
	if err := m.SyncDir("/s"); err != nil {
		t.Fatal(err)
	}

	// Synced content under a synced directory survives.
	if err := atomicReplace(t, m, "/s/safe", []byte("kept")); err != nil {
		t.Fatal(err)
	}

	// Rename without the directory sync reverts to the old entry.
	if err := atomicReplace(t, m, "/s/flip", []byte("old")); err != nil {
		t.Fatal(err)
	}
	g, err := m.CreateTemp("/s", "flip.tmp*")
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("new"))
	g.Sync()
	g.Close()
	if err := m.Rename(g.Name(), "/s/flip"); err != nil {
		t.Fatal(err)
	}
	// No SyncDir: visible now is "new", durable is still "old".
	if got, _ := m.ReadFile("/s/flip"); string(got) != "new" {
		t.Fatalf("visible flip = %q", got)
	}

	img := m.CrashImage()
	if got, err := img.ReadFile("/s/safe"); err != nil || string(got) != "kept" {
		t.Fatalf("crash image safe = %q, %v", got, err)
	}
	if got, err := img.ReadFile("/s/unsynced"); err != nil || len(got) != 0 {
		t.Fatalf("crash image unsynced = %q, %v (want durable entry with empty content)", got, err)
	}
	if got, err := img.ReadFile("/s/flip"); err != nil || string(got) != "old" {
		t.Fatalf("crash image flip = %q, %v (rename without dir sync must revert)", got, err)
	}
	// The temp file renamed away must not resurrect under its temp name.
	if entries, _ := img.ReadDir("/s"); len(entries) != 3 {
		t.Fatalf("crash image entries: %v", entries)
	}
	// The original filesystem is untouched by taking the image.
	if got, _ := m.ReadFile("/s/flip"); string(got) != "new" {
		t.Fatal("CrashImage perturbed the live filesystem")
	}

	// A directory created but never made durable vanishes entirely.
	m2 := NewMemFS()
	m2.MkdirAll("/gone", 0o755)
	if _, err := m2.CrashImage().Stat("/gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unsynced dir survived the crash: %v", err)
	}
}

func TestMemFSRemoveDurability(t *testing.T) {
	m := NewMemFS()
	m.MkdirAll("/s", 0o755)
	m.SyncDir("/s")
	if err := atomicReplace(t, m, "/s/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Remove without SyncDir: the file comes back after a crash.
	if err := m.Remove("/s/f"); err != nil {
		t.Fatal(err)
	}
	if got, err := m.CrashImage().ReadFile("/s/f"); err != nil || string(got) != "x" {
		t.Fatalf("unsynced remove became durable: %q, %v", got, err)
	}
	// With SyncDir the removal sticks.
	if err := m.SyncDir("/s"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrashImage().ReadFile("/s/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("synced remove did not persist: %v", err)
	}
}

// TestFaultFSZeroSchedulePassthrough: an empty schedule must be invisible —
// the FaultFS mirror of the zero-value hpc.FaultModel rule.
func TestFaultFSZeroSchedulePassthrough(t *testing.T) {
	plain := NewMemFS()
	exerciseFS(t, plain, "/store")
	wrapped := NewFaultFS(NewMemFS(), Faults{})
	exerciseFS(t, wrapped, "/store")
	if wrapped.Injected() != 0 {
		t.Fatalf("zero schedule injected %d faults", wrapped.Injected())
	}
	for _, p := range []string{"/store/c01/meta.bin"} {
		a, err1 := plain.ReadFile(p)
		b, err2 := wrapped.ReadFile(p)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs under empty FaultFS: %q vs %q (%v, %v)", p, a, b, err1, err2)
		}
	}
}

func TestFaultFSCrashAtEveryOp(t *testing.T) {
	// The recipe, taped once: mkdir, dir sync, one atomic replace.
	rec := NewRecordFS(NewMemFS())
	rec.MkdirAll("/s", 0o755)
	rec.SyncDir("/s")
	if err := atomicReplace(t, rec, "/s/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	total, err := CrashPoints(rec.Ops())
	if err != nil {
		t.Fatal(err)
	}
	if total < 7 {
		t.Fatalf("recipe has only %d mutating ops", total)
	}
	for k := int64(1); k <= total; k++ {
		img, err := CrashImageAt(rec.Ops(), k, false)
		if err != nil {
			t.Fatal(err)
		}
		// The surviving image shows either the complete file or no file —
		// never a prefix (the recipe syncs before renaming).
		if got, err := img.ReadFile("/s/f"); err == nil {
			if string(got) != "payload" {
				t.Fatalf("crash at op %d survived torn content %q", k, got)
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}

	// The cut itself: the op at the crash point does not happen, the
	// FaultFS records the cut, and everything after it fails, reads included.
	mem := NewMemFS()
	ffs := NewFaultFS(mem, Faults{CrashAtOp: 2})
	if err := ffs.MkdirAll("/s", 0o755); err != nil || ffs.Crashed() {
		t.Fatalf("op before the cut: %v, crashed=%v", err, ffs.Crashed())
	}
	if err := ffs.SyncDir("/s"); !errors.Is(err, ErrCrashed) || !ffs.Crashed() {
		t.Fatalf("op at the cut: %v, crashed=%v", err, ffs.Crashed())
	}
	if _, err := mem.CrashImage().ReadDir("/s"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the cut dir sync took effect: %v", err)
	}
	if _, err := ffs.ReadDir("/s"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	if _, err := ffs.Create("/s/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: %v", err)
	}
}

func TestFaultFSDiskBudget(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/s", 0o755)
	ffs := NewFaultFS(mem, Faults{DiskBudget: 10})
	f, _ := ffs.Create("/s/f")
	if n, err := f.Write([]byte("12345678")); n != 8 || err != nil {
		t.Fatalf("within budget: %d, %v", n, err)
	}
	// Crossing the budget persists the prefix and reports ENOSPC: a torn
	// write, injected like a real one.
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("over budget: n=%d err=%v", n, err)
	}
	if got, err := mem.ReadFile("/s/f"); err != nil || string(got) != "12345678ab" {
		t.Fatalf("prefix on disk = %q, %v", got, err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full disk write: %v", err)
	}
	// File creation on a full disk fails too.
	if _, err := ffs.Create("/s/g"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full disk create: %v", err)
	}
	if _, err := ffs.CreateTemp("/s", "t*"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("full disk createtemp: %v", err)
	}
}

// TestFaultFSSyncLies: a lying fsync reports success, the recipe
// completes, and the crash drops the pages — leaving the renamed file
// with no content, exactly the torn state the ckpt container must reject.
func TestFaultFSSyncLies(t *testing.T) {
	mem := NewMemFS()
	mem.MkdirAll("/s", 0o755)
	mem.SyncDir("/s")
	ffs := NewFaultFS(mem, Faults{SyncLies: true})
	if err := atomicReplace(t, ffs, "/s/f", []byte("acked but dropped")); err != nil {
		t.Fatalf("lying fsync surfaced an error: %v", err)
	}
	if got, _ := mem.ReadFile("/s/f"); string(got) != "acked but dropped" {
		t.Fatalf("pre-crash content: %q", got)
	}
	got, err := mem.CrashImage().ReadFile("/s/f")
	if err != nil {
		t.Fatalf("entry was dir-synced honestly, must survive: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("lied-about pages survived the crash: %q", got)
	}
}

func TestFaultFSCounterInjection(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), Faults{WriteErrEvery: 3, SyncErrEvery: 2})
	ffs.MkdirAll("/s", 0o755)
	f, _ := ffs.Create("/s/f")
	var writeErrs, syncErrs int
	for i := 0; i < 6; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("write err = %v", err)
			}
			writeErrs++
		}
		if err := f.Sync(); err != nil {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("sync err = %v", err)
			}
			syncErrs++
		}
	}
	if writeErrs != 2 || syncErrs != 3 {
		t.Fatalf("counter injection: %d write errors (want 2), %d sync errors (want 3)", writeErrs, syncErrs)
	}
}

// TestRecordReplayRoundTrip: a tape replayed onto a fresh filesystem
// reproduces the recording filesystem's visible AND durable state.
func TestRecordReplayRoundTrip(t *testing.T) {
	src := NewMemFS()
	rec := NewRecordFS(src)
	rec.MkdirAll("/s/c01", 0o755)
	rec.SyncDir("/s")
	if err := atomicReplace(t, rec, "/s/c01/meta", []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if err := atomicReplace(t, rec, "/s/c01/meta", []byte("m2-replaced")); err != nil {
		t.Fatal(err)
	}
	if err := atomicReplace(t, rec, "/s/c01/ckpt", []byte("checkpoint bytes")); err != nil {
		t.Fatal(err)
	}
	rec.Remove("/s/c01/ckpt")
	// Unsynced remove: durable state still has the file.

	dst := NewMemFS()
	applied, err := Replay(dst, rec.Ops())
	if err != nil || applied != len(rec.Ops()) {
		t.Fatalf("replay: applied %d/%d, %v", applied, len(rec.Ops()), err)
	}
	for _, fsys := range []FS{src, dst} {
		if got, err := fsys.ReadFile("/s/c01/meta"); err != nil || string(got) != "m2-replaced" {
			t.Fatalf("meta = %q, %v", got, err)
		}
	}
	srcImg, dstImg := src.CrashImage(), dst.CrashImage()
	for _, p := range []string{"/s/c01/meta", "/s/c01/ckpt"} {
		a, ea := srcImg.ReadFile(p)
		b, eb := dstImg.ReadFile(p)
		if (ea == nil) != (eb == nil) || !bytes.Equal(a, b) {
			t.Fatalf("durable %s diverged: %q/%v vs %q/%v", p, a, ea, b, eb)
		}
	}
}

// TestRecordReplayCrashEnumeration is the unit test of the enumeration
// helpers every torture harness instantiates: CrashPoints counts the
// tape's mutating ops, CrashImageAt yields an image for exactly k in 1..N
// — across all k only old-or-new durable states of an atomically replaced
// file — lie mode loses what honest fsyncs kept, and TreeDigest tells
// every pair of differing trees apart while ignoring creation order.
func TestRecordReplayCrashEnumeration(t *testing.T) {
	src := NewMemFS()
	rec := NewRecordFS(src)
	rec.MkdirAll("/s", 0o755)
	rec.SyncDir("/s")
	if err := atomicReplace(t, rec, "/s/f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := atomicReplace(t, rec, "/s/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	tape := rec.Ops()
	total, err := CrashPoints(tape)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 + 2*5); total != want { // Close is not a mutating op
		t.Fatalf("CrashPoints = %d, want %d", total, want)
	}
	for _, k := range []int64{-1, 0, total + 1} {
		if img, err := CrashImageAt(tape, k, false); err == nil || img != nil {
			t.Fatalf("k=%d of %d: got image %v, err %v — want an error", k, total, img, err)
		}
	}

	sawOld, lieLost := false, false
	digests := map[string]string{} // digest → content of /s/f ("-" = absent)
	for k := int64(1); k <= total; k++ {
		img, err := CrashImageAt(tape, k, false)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		state := "-"
		got, err := img.ReadFile("/s/f")
		switch {
		case errors.Is(err, fs.ErrNotExist): // before the first replace landed
		case err != nil:
			t.Fatalf("k=%d: %v", k, err)
		case string(got) == "old":
			sawOld = true
			state = "old"
		case string(got) == "new":
			// Cannot happen here — the tape's final op is the directory
			// sync that makes "new" durable, so "new" only survives the
			// uncut replay (checked below).
			fallthrough
		default:
			t.Fatalf("k=%d: torn state %q", k, got)
		}
		// Equal digests must mean equal trees, and the digest must be a
		// function of the tree alone.
		d := img.TreeDigest("/")
		if prev, ok := digests[d]; ok && prev != state {
			t.Fatalf("k=%d: digest collision between states %q and %q", k, prev, state)
		}
		digests[d] = state
		if again, _ := CrashImageAt(tape, k, false); again.TreeDigest("/") != d {
			t.Fatalf("k=%d: digest of the same crash image is unstable", k)
		}

		// Lie mode: the same cut, but acknowledged fsyncs kept nothing. The
		// durable directory entry then points at bytes that never landed.
		lie, err := CrashImageAt(tape, k, true)
		if err != nil {
			t.Fatalf("lie k=%d: %v", k, err)
		}
		if got, err := lie.ReadFile("/s/f"); state == "old" && (err != nil || string(got) != "") {
			t.Fatalf("lie k=%d: /s/f = %q, %v — want the entry with its synced bytes dropped", k, got, err)
		} else if state == "old" {
			lieLost = true
			if lie.TreeDigest("/") == d {
				t.Fatalf("lie k=%d: digest ignores file content", k)
			}
		}
	}
	if !sawOld || !lieLost {
		t.Fatalf("enumeration never surfaced the old durable state (honest %v, lie %v)", sawOld, lieLost)
	}
	if len(digests) < 3 {
		t.Fatalf("only %d distinct digests: empty, dir-only and old-file trees must all differ", len(digests))
	}
	if _, ok := digests[src.CrashImage().TreeDigest("/")]; ok {
		t.Fatal("the uncut tree (new) shares a digest with a crash image")
	}
	if got, err := src.CrashImage().ReadFile("/s/f"); err != nil || string(got) != "new" {
		t.Fatalf("uncut durable state = %q, %v", got, err)
	}

	// Order stability: the same tree built in two creation orders.
	build := func(names ...string) *MemFS {
		m := NewMemFS()
		for _, n := range names {
			m.MkdirAll(filepath.Dir(n), 0o755)
			f, err := m.Create(n)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte(n))
			f.Close()
		}
		return m
	}
	ab, ba := build("/t/a", "/t/sub/b", "/t/c"), build("/t/c", "/t/sub/b", "/t/a")
	if ab.TreeDigest("/t") != ba.TreeDigest("/t") {
		t.Fatal("TreeDigest depends on creation order")
	}
	if ab.TreeDigest("/t") == build("/t/a", "/t/sub/b").TreeDigest("/t") {
		t.Fatal("TreeDigest ignores a missing file")
	}
	if ab.TreeDigest("/t/sub") == ab.TreeDigest("/t") {
		t.Fatal("TreeDigest ignores its root")
	}
}
