package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
)

// runCampaignToDone hosts one campaign over the given filesystem (nil =
// the default fsim.OS) and returns the raw on-disk log and meta bytes.
func runCampaignToDone(t *testing.T, fsys fsim.FS, dir string, spec Spec) (logRaw, metaRaw []byte) {
	t.Helper()
	opts := fastOpts(t)
	opts.FS = fsys
	mgr := newTestManager(t, dir, opts)
	mgr.Start()
	defer mgr.Drain()
	info, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, info.ID, StatusDone)
	read := fsim.OS
	if fsys != nil {
		read = fsys
	}
	logRaw, err = read.ReadFile(filepath.Join(dir, info.ID, logFile))
	if err != nil {
		t.Fatal(err)
	}
	metaRaw, err = read.ReadFile(filepath.Join(dir, info.ID, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	return logRaw, metaRaw
}

// TestShortTortureCrashEnumeration is the PR's acceptance pin: a power cut
// at EVERY mutating filesystem operation of a campaign — fsync-lying
// firmware included — leaves a store the service reopens without losing
// committed state, and the resumed search log is byte-identical to the
// uninterrupted run. TortureCampaign returns an error on the first
// violated invariant; the assertions below only sanity-check coverage.
func TestShortTortureCrashEnumeration(t *testing.T) {
	rep, err := TortureCampaign(testSpec(), TortureOptions{
		Opts: fastOpts(t),
		Lies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CrashPoints < 20 {
		t.Fatalf("only %d crash points enumerated; the tape looks truncated: %+v", rep.CrashPoints, rep)
	}
	if rep.EmptyStores == 0 {
		t.Errorf("no crash point landed before the first durable meta: %+v", rep)
	}
	if rep.DistinctImages >= rep.CrashPoints {
		t.Errorf("image memoization ineffective: %d distinct images for %d crash points",
			rep.DistinctImages, rep.CrashPoints)
	}
	if rep.LiveResumes == 0 {
		t.Errorf("no crash point exercised a live resume: %+v", rep)
	}
	if rep.LieCrashPoints != rep.CrashPoints {
		t.Errorf("lie pass covered %d of %d crash points", rep.LieCrashPoints, rep.CrashPoints)
	}
	if rep.LieUnreadable == 0 {
		t.Errorf("fsync-lie pass never produced detected damage — the lie is not biting: %+v", rep)
	}
}

// TestShortZeroFaultPinByteIdentical pins the seam itself: a campaign run
// through the default direct-os path, through an empty-schedule FaultFS,
// and through the in-memory filesystem must persist byte-identical log and
// meta files, all matching the plain nas-search run. The fault layer must
// be invisible when no fault fires.
func TestShortZeroFaultPinByteIdentical(t *testing.T) {
	spec := testSpec()
	logOS, metaOS := runCampaignToDone(t, nil, t.TempDir(), spec)

	ffs := fsim.NewFaultFS(fsim.OS, fsim.Faults{})
	logFault, metaFault := runCampaignToDone(t, ffs, t.TempDir(), spec)
	if n := ffs.Injected(); n != 0 {
		t.Fatalf("zero-schedule FaultFS injected %d faults", n)
	}

	mem := fsim.NewMemFS()
	logMem, metaMem := runCampaignToDone(t, mem, "/campaigns", spec)

	if !bytes.Equal(logOS, logFault) || !bytes.Equal(logOS, logMem) {
		t.Error("campaign log differs across os / zero-fault / memory filesystems")
	}
	if !bytes.Equal(metaOS, metaFault) || !bytes.Equal(metaOS, metaMem) {
		t.Error("campaign meta differs across os / zero-fault / memory filesystems")
	}
	if want := logBytes(t, referenceRun(t, spec)); !bytes.Equal(logOS, want) {
		t.Error("campaign log differs from the uninterrupted nas-search run")
	}
}

// TestShortTornCheckpointPrefixesRejected is the torn-write differential:
// every strict prefix of a real search.ckpt — what a cut-short write
// without the atomic rename discipline would leave — must be rejected by
// the container reader with a descriptive ErrCorrupt, never mis-decoded
// and never classified as transient I/O.
func TestShortTornCheckpointPrefixesRejected(t *testing.T) {
	mem := fsim.NewMemFS()
	spec := testSpec()
	spec.Horizon = 200 // two allocations: checkpoint persists, then done
	opts := fastOpts(t)
	opts.FS = mem
	mgr := newTestManager(t, "/campaigns", opts)
	mgr.Start()
	spec2 := spec
	info, err := mgr.Submit(&spec2)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, info.ID, StatusDone)
	mgr.Drain()

	ckptPath := filepath.Join("/campaigns", info.ID, ckptFile)
	raw, err := mem.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ckpt.ReadFileFS(mem, ckptPath, "nasgockp", 1); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}

	// Every byte of the header region, then strided cuts through the
	// payload, then the last bytes.
	cuts := map[int]bool{}
	for l := 0; l < 64 && l < len(raw); l++ {
		cuts[l] = true
	}
	for l := 0; l < len(raw); l += 1 + len(raw)/64 {
		cuts[l] = true
	}
	for l := len(raw) - 4; l < len(raw); l++ {
		cuts[l] = true
	}
	torn := "/torn.ckpt"
	for l := range cuts {
		if l < 0 || l >= len(raw) {
			continue
		}
		w, err := mem.Create(torn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw[:l]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = ckpt.ReadFileFS(mem, torn, "nasgockp", 1)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded as a valid checkpoint", l, len(raw))
		}
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error not classified as corruption: %v", l, err)
		}
		if ckpt.IsTransient(err) {
			t.Fatalf("prefix of %d bytes classified transient — a supervisor would retry forever: %v", l, err)
		}
	}
}

// FuzzReadMeta feeds arbitrary bytes through the campaign meta path: the
// store must always open (quarantining, never failing), and LoadMeta must
// either return a validated record or a descriptive error — no panics, no
// zero-valued metas. The seed corpus covers the documented damage modes:
// truncations at the header boundaries, a payload bit flip, and trailing
// garbage.
func FuzzReadMeta(f *testing.F) {
	mem := fsim.NewMemFS()
	st, _, err := OpenStoreFS(mem, "/campaigns")
	if err != nil {
		f.Fatal(err)
	}
	spec := testSpec()
	if err := st.Create(Meta{ID: "c00000001", Spec: spec, Status: StatusRunning}); err != nil {
		f.Fatal(err)
	}
	valid, err := mem.ReadFile("/campaigns/c00000001/" + metaFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:13])           // mid-version truncation
	f.Add(valid[:52])           // exactly the container header
	f.Add(valid[:len(valid)-5]) // torn payload tail
	flipped := append([]byte(nil), valid...)
	flipped[60] ^= 0x40 // payload bit flip: checksum must catch it
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), "trailing garbage"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := fsim.NewMemFS()
		if err := mem.MkdirAll("/campaigns/c00000001", 0o755); err != nil {
			t.Fatal(err)
		}
		w, err := mem.Create("/campaigns/c00000001/" + metaFile)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, quarantined, err := OpenStoreFS(mem, "/campaigns")
		if err != nil {
			t.Fatalf("store open must survive arbitrary meta bytes: %v", err)
		}
		m, err := st.LoadMeta("c00000001")
		if err == nil {
			if m.ID != "c00000001" {
				t.Fatalf("accepted meta names campaign %q", m.ID)
			}
			if len(quarantined) != 0 {
				t.Fatalf("meta readable yet campaign quarantined: %v", quarantined)
			}
		} else if err.Error() == "" {
			t.Fatal("rejection without a descriptive error")
		}
	})
}

// flakyTempFS fails the next `fail` CreateTemp calls whose pattern
// contains match with a transient EIO — a device that drops writes for a
// while, then recovers.
type flakyTempFS struct {
	fsim.FS
	match string
	fail  atomic.Int32
}

func (f *flakyTempFS) CreateTemp(dir, pattern string) (fsim.File, error) {
	if strings.Contains(pattern, f.match) && f.fail.Load() > 0 {
		f.fail.Add(-1)
		return nil, &fs.PathError{Op: "createtemp", Path: filepath.Join(dir, pattern), Err: syscall.EIO}
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestShortTransientIORetriesWithoutParking pins the supervisor policy: a
// run of transient I/O failures longer than maxRestarts must NOT park the
// campaign in FAILED — a flaky device is an environment condition, not a
// campaign defect. Once the device recovers the campaign completes to the
// reference log.
func TestShortTransientIORetriesWithoutParking(t *testing.T) {
	mem := fsim.NewMemFS()
	flaky := &flakyTempFS{FS: mem, match: ckptFile}
	flaky.fail.Store(maxRestarts + 1) // would park if misclassified
	opts := fastOpts(t)
	opts.FS = flaky
	mgr := newTestManager(t, "/campaigns", opts)
	mgr.Start()
	defer mgr.Drain()
	spec := testSpec()
	info, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr, info.ID, StatusDone) // fails fast on FAILED
	if done.Restarts < maxRestarts+1 {
		t.Errorf("recorded %d restarts, want > maxRestarts (one per injected EIO)", done.Restarts)
	}
	if left := flaky.fail.Load(); left != 0 {
		t.Errorf("%d injected failures never consumed", left)
	}
	logRaw, err := mem.ReadFile(filepath.Join("/campaigns", info.ID, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logRaw, logBytes(t, referenceRun(t, spec))) {
		t.Error("log after transient-I/O retries differs from the uninterrupted run")
	}
}

// enospcFS fails CreateTemp for matching files with ENOSPC while full is
// set — a disk with room for small meta records but not for checkpoints.
type enospcFS struct {
	fsim.FS
	match string
	full  atomic.Bool
}

func (f *enospcFS) CreateTemp(dir, pattern string) (fsim.File, error) {
	if f.full.Load() && strings.Contains(pattern, f.match) {
		return nil, &fs.PathError{Op: "createtemp", Path: filepath.Join(dir, pattern), Err: syscall.ENOSPC}
	}
	return f.FS.CreateTemp(dir, pattern)
}

// TestShortDiskFullPausesAndDegrades pins the ENOSPC policy end to end:
// the campaign pauses at its walltime boundary (retries cannot free
// disk), the manager latches degraded health, HTTP submissions get 507
// while healthz stays 200 and reports the condition, and freeing space +
// resume completes to the reference log and clears the latch.
func TestShortDiskFullPausesAndDegrades(t *testing.T) {
	mem := fsim.NewMemFS()
	disk := &enospcFS{FS: mem, match: ckptFile}
	opts := fastOpts(t)
	opts.FS = disk
	mgr := newTestManager(t, "/campaigns", opts)
	mgr.Start()
	srv := httptest.NewServer(NewServer(mgr, ServerOptions{}).Handler())
	defer srv.Close()

	disk.full.Store(true)
	spec := testSpec()
	info, err := mgr.Submit(&spec) // meta still fits; the checkpoint won't
	if err != nil {
		t.Fatal(err)
	}
	paused := waitStatus(t, mgr, info.ID, StatusPaused)
	if !strings.Contains(paused.Error, "storage full") {
		t.Errorf("paused error %q does not name the condition", paused.Error)
	}
	if h := mgr.Health(); !h.DiskFull || h.Status != "degraded" {
		t.Errorf("health after ENOSPC: %+v", h)
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, body, _ := httpDo(t, "POST", srv.URL+"/campaigns", specJSON)
	if st != http.StatusInsufficientStorage {
		t.Errorf("submit on full disk: %d %s, want 507", st, body)
	}
	st, body, _ = httpDo(t, "GET", srv.URL+"/healthz", nil)
	if st != http.StatusOK {
		t.Errorf("healthz while degraded: %d, want 200 (process is alive)", st)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.DiskFull || h.Status != "degraded" {
		t.Errorf("healthz body does not report disk state: %s", body)
	}

	disk.full.Store(false) // operator frees space
	if _, err := mgr.Resume(info.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, mgr, info.ID, StatusDone)
	if h := mgr.Health(); h.DiskFull || h.Status != "ok" {
		t.Errorf("health after recovery: %+v", h)
	}
	logRaw, err := mem.ReadFile(filepath.Join("/campaigns", info.ID, logFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logRaw, logBytes(t, referenceRun(t, spec))) {
		t.Error("log after disk-full pause/resume differs from the uninterrupted run")
	}
	mgr.Drain()
}
