package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
	"nasgo/internal/trace"
)

// fastOpts keeps supervisor restarts snappy in tests.
func fastOpts(t *testing.T) Options {
	return Options{
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Logf:        t.Logf,
	}
}

func newTestManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	mgr, quarantined, err := NewManager(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("quarantined: %v", quarantined)
	}
	return mgr
}

// waitStatus polls until the campaign reaches want (and its runner has
// stopped, for terminal/paused states).
func waitStatus(t *testing.T, mgr *Manager, id string, want Status) Info {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		info, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == want && (!want.Terminal() && want != StatusPaused || !info.Running) {
			return info
		}
		if info.Status.Terminal() && info.Status != want {
			t.Fatalf("campaign %s reached %s (error %q) while waiting for %s",
				id, info.Status, info.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	info, _ := mgr.Get(id)
	t.Fatalf("campaign %s stuck at %+v waiting for %s", id, info, want)
	return Info{}
}

// logBytes renders a search log exactly as Log.WriteJSONFS persists it.
func logBytes(t *testing.T, log *search.Log) []byte {
	t.Helper()
	data, err := json.MarshalIndent(log, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceRun executes the spec's search uninterrupted in-process — the
// exact run `nas-search` with the same flags performs. Memoized per spec:
// several tests compare against the same reference, and each run costs
// seconds on a 1-CPU box.
var refCache = map[Spec]*search.Log{}

func referenceRun(t *testing.T, spec Spec) *search.Log {
	t.Helper()
	if log, ok := refCache[spec]; ok {
		return log
	}
	bench, sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	log := search.Run(bench, sp, spec.SearchConfig())
	refCache[spec] = log
	return log
}

// TestShortCampaignMatchesSearchRun: a campaign hosted by the manager
// completes to a log byte-identical to the plain nas-search run of the
// same spec — the service adds durability, never perturbation.
func TestShortCampaignMatchesSearchRun(t *testing.T) {
	mgr := newTestManager(t, t.TempDir(), fastOpts(t))
	mgr.Start()
	defer mgr.Drain()
	spec := testSpec()
	info, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr, info.ID, StatusDone)
	if done.Allocations < 2 {
		t.Fatalf("campaign finished in %d allocations; the walltime chain was not exercised", done.Allocations)
	}
	got, err := mgr.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceRun(t, spec)
	if !bytes.Equal(logBytes(t, got), logBytes(t, want)) {
		t.Fatal("campaign log differs from the uninterrupted nas-search run")
	}
	// The persisted file round-trips identically too.
	fromDisk, ok, err := mgr.store.LoadLog(info.ID)
	if err != nil || !ok {
		t.Fatalf("load persisted log: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(logBytes(t, fromDisk), logBytes(t, want)) {
		t.Fatal("persisted campaign log differs from the reference run")
	}
	// Trace stream accumulated across allocations is non-empty and
	// readable incrementally.
	evs, next, err := mgr.Trace(info.ID, 0)
	if err != nil || len(evs) == 0 {
		t.Fatalf("trace: %d events, err=%v", len(evs), err)
	}
	if tail, _, _ := mgr.Trace(info.ID, next); len(tail) != 0 {
		t.Fatalf("cursor %d should be the frontier, got %d more events", next, len(tail))
	}
}

// TestShortSupervisorPanicRestart: a campaign that panics mid-flight is
// restarted with backoff from its last persisted checkpoint and still
// produces the byte-identical log, while a sibling campaign runs to
// completion untouched — the acceptance pin for supervisor robustness. The
// restart continues from the checkpoint the runner holds: nothing reads
// search.ckpt back.
func TestShortSupervisorPanicRestart(t *testing.T) {
	opts := fastOpts(t)
	counted := &countReadsFS{FS: fsim.OS, file: ckptFile}
	opts.FS = counted
	mgr := newTestManager(t, t.TempDir(), opts)
	var victimID atomic.Value
	victimID.Store("")
	var panics atomic.Int32
	mgr.testHookAllocation = func(id string, allocations int) {
		if id == victimID.Load().(string) && allocations == 1 && panics.Add(1) <= 2 {
			panic(fmt.Sprintf("injected fault #%d", panics.Load()))
		}
	}
	mgr.Start()
	defer mgr.Drain()

	spec := testSpec()
	sibling := testSpec()
	sibling.Seed = 123
	vInfo, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	victimID.Store(vInfo.ID)
	sInfo, err := mgr.Submit(&sibling)
	if err != nil {
		t.Fatal(err)
	}

	vDone := waitStatus(t, mgr, vInfo.ID, StatusDone)
	sDone := waitStatus(t, mgr, sInfo.ID, StatusDone)
	if vDone.Restarts != 2 {
		t.Fatalf("victim restarts = %d, want 2", vDone.Restarts)
	}
	if int(panics.Load()) < 2 {
		t.Fatalf("hook panicked %d times, want >= 2", panics.Load())
	}
	if sDone.Restarts != 0 || sDone.Error != "" {
		t.Fatalf("sibling was disturbed: %+v", sDone)
	}
	if n := counted.reads.Load(); n != 0 {
		t.Fatalf("restarts read %s %d times, want 0", ckptFile, n)
	}
	vLog, err := mgr.Log(vInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBytes(t, vLog), logBytes(t, referenceRun(t, spec))) {
		t.Fatal("panic-restarted campaign log differs from the uninterrupted run")
	}
	sLog, err := mgr.Log(sInfo.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBytes(t, sLog), logBytes(t, referenceRun(t, sibling))) {
		t.Fatal("sibling campaign log differs from the uninterrupted run")
	}
}

// TestShortSupervisorParksFailed: a campaign that panics on every attempt
// exhausts its capped restarts and parks in FAILED with the error
// recorded; each restart logs the stack once, naming the panicking
// function, and the recorded error carries none of it; the manager keeps
// serving and accepting other campaigns.
func TestShortSupervisorParksFailed(t *testing.T) {
	opts := fastOpts(t)
	var stacks atomic.Int32 // log lines that name the panicking hook
	opts.Logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "TestShortSupervisorParksFailed.func") {
			stacks.Add(1)
		}
		t.Logf(format, args...)
	}
	mgr := newTestManager(t, t.TempDir(), opts)
	var doomedID atomic.Value
	doomedID.Store("")
	mgr.testHookAllocation = func(id string, allocations int) {
		if id == doomedID.Load().(string) {
			panic("always broken")
		}
	}
	mgr.Start()
	defer mgr.Drain()

	spec := testSpec()
	dInfo, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	doomedID.Store(dInfo.ID)
	// Wake the campaign again: the hook reads doomedID at allocation
	// time, and the first allocation may already have run.
	failed := func() Info {
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			info, err := mgr.Get(dInfo.ID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status == StatusFailed {
				return info
			}
			if info.Status == StatusDone {
				// The first allocation slipped past before the hook armed;
				// rare, but not a supervisor defect.
				t.Skip("campaign completed before the fault armed")
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal("campaign never parked in FAILED")
		return Info{}
	}()
	if failed.Running {
		t.Fatal("FAILED campaign still has a runner")
	}
	if failed.Error == "" || failed.Restarts < maxRestarts {
		t.Fatalf("FAILED campaign meta: %+v", failed)
	}
	if strings.Contains(failed.Error, "\n") {
		t.Fatalf("FAILED campaign's error carries a stack: %q", failed.Error)
	}
	if n := stacks.Load(); int(n) != failed.Restarts {
		t.Fatalf("%d log lines name the panicking hook over %d restarts, want one each", n, failed.Restarts)
	}
	// FAILED is terminal: pause/resume/cancel conflict, and the server
	// still accepts fresh campaigns.
	if _, err := mgr.Pause(dInfo.ID); err == nil {
		t.Fatal("paused a FAILED campaign")
	}
	if _, err := mgr.Resume(dInfo.ID); err == nil {
		t.Fatal("resumed a FAILED campaign")
	}
	healthy := testSpec()
	healthy.Seed = 7
	hInfo, err := mgr.Submit(&healthy)
	if err != nil {
		t.Fatalf("manager stopped accepting campaigns after a FAILED one: %v", err)
	}
	waitStatus(t, mgr, hInfo.ID, StatusDone)
}

// TestShortPauseResumeCancel covers the control-plane state machine:
// pause cuts at a boundary, double-pause and double-cancel are
// idempotent, resume continues to the byte-identical log, and terminal
// states reject conflicting transitions.
func TestShortPauseResumeCancel(t *testing.T) {
	mgr := newTestManager(t, t.TempDir(), fastOpts(t))
	mgr.Start()
	defer mgr.Drain()

	spec := testSpec()
	spec.Horizon = 2000 // ~20 boundaries: controls land long before completion
	spec.Walltime = 100
	info, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one boundary pass so the resume exercises the
	// checkpointed path, then pause.
	for {
		st, err := mgr.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Allocations >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := mgr.Pause(info.ID); err != nil {
		t.Fatal(err)
	}
	paused := waitStatus(t, mgr, info.ID, StatusPaused)
	if paused.Running {
		t.Fatal("paused campaign still running")
	}
	if again, err := mgr.Pause(info.ID); err != nil || again.Status != StatusPaused {
		t.Fatalf("double pause: %+v err=%v", again, err)
	}
	if _, err := mgr.Resume(info.ID); err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, mgr, info.ID, StatusDone)
	if done.Allocations <= paused.Allocations {
		t.Fatalf("no progress after resume: %d -> %d allocations", paused.Allocations, done.Allocations)
	}
	got, err := mgr.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBytes(t, got), logBytes(t, referenceRun(t, spec))) {
		t.Fatal("paused+resumed campaign log differs from the uninterrupted run")
	}
	// Terminal-state discipline on the finished campaign.
	if _, err := mgr.Cancel(info.ID); err == nil {
		t.Fatal("cancelled a DONE campaign")
	}
	if _, err := mgr.Resume(info.ID); err == nil {
		t.Fatal("resumed a DONE campaign")
	}

	// Cancellation: terminal, idempotent, and resume-proof.
	c2 := testSpec()
	c2.Horizon = 2000
	c2.Walltime = 100
	c2.Seed = 5
	cInfo, err := mgr.Submit(&c2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(cInfo.ID); err != nil {
		t.Fatal(err)
	}
	cancelled := waitStatus(t, mgr, cInfo.ID, StatusCancelled)
	if cancelled.Running {
		t.Fatal("cancelled campaign still running")
	}
	if again, err := mgr.Cancel(cInfo.ID); err != nil || again.Status != StatusCancelled {
		t.Fatalf("double cancel: %+v err=%v", again, err)
	}
	if _, err := mgr.Resume(cInfo.ID); err == nil {
		t.Fatal("resumed a CANCELLED campaign")
	}
}

// TestShortDrainAndReopen: draining stops campaigns at their next
// boundary with status RUNNING persisted; a new manager over the same
// store resumes them to completion with the byte-identical log — the
// in-process half of the kill-and-restart story.
func TestShortDrainAndReopen(t *testing.T) {
	dir := t.TempDir()
	mgr := newTestManager(t, dir, fastOpts(t))
	mgr.Start()
	spec := testSpec()
	spec.Horizon = 2000
	spec.Walltime = 100
	info, err := mgr.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then drain mid-campaign.
	for {
		st, err := mgr.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Allocations >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mgr.Drain()
	if _, err := mgr.Submit(&spec); err == nil {
		t.Fatal("draining manager accepted a submission")
	}
	st, err := mgr.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusRunning || st.Running {
		t.Fatalf("drained campaign: %+v, want persisted RUNNING with no runner", st)
	}

	mgr2 := newTestManager(t, dir, fastOpts(t))
	mgr2.Start()
	defer mgr2.Drain()
	st2, err := mgr2.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Running && !st2.Status.Terminal() {
		t.Fatalf("reopened manager did not relaunch the campaign: %+v", st2)
	}
	waitStatus(t, mgr2, info.ID, StatusDone)
	got, err := mgr2.Log(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logBytes(t, got), logBytes(t, referenceRun(t, spec))) {
		t.Fatal("drain+reopen campaign log differs from the uninterrupted run")
	}
}

func TestBackoffCapped(t *testing.T) {
	o := Options{BackoffBase: 10 * time.Millisecond, BackoffCap: 60 * time.Millisecond}.withDefaults()
	want := []time.Duration{10, 20, 40, 60, 60} // ms
	for i, w := range want {
		if got := o.Backoff(i + 1); got != w*time.Millisecond {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	if o.Backoff(0) != 10*time.Millisecond {
		t.Fatal("Backoff clamps below 1")
	}
	if o.Backoff(400) != 60*time.Millisecond {
		t.Fatal("huge attempt counts must cap, not overflow")
	}
}

func TestTraceLogTrim(t *testing.T) {
	var tl traceLog
	tl.append(make([]trace.Event, 3))
	if tl.dropped != 0 || len(tl.events) != 3 {
		t.Fatalf("after first append: %d dropped, %d kept", tl.dropped, len(tl.events))
	}
	tl.events = make([]trace.Event, traceKeep-1) // one short of the bound
	tl.append(make([]trace.Event, 3))            // traceKeep+2 events → 2 dropped
	if tl.dropped != 2 || len(tl.events) != traceKeep {
		t.Fatalf("after trim: %d dropped, %d kept", tl.dropped, len(tl.events))
	}
	// A cursor before the trim clamps to the oldest survivor.
	evs, next := tl.since(0)
	if len(evs) != traceKeep || next != traceKeep+2 {
		t.Fatalf("since(0): %d events, next %d", len(evs), next)
	}
	if evs, next := tl.since(traceKeep + 2); len(evs) != 0 || next != traceKeep+2 {
		t.Fatalf("frontier: %d events, next %d", len(evs), next)
	}
}

func TestManagerReadyDoneChannels(t *testing.T) {
	mgr := newTestManager(t, t.TempDir(), fastOpts(t))
	select {
	case <-mgr.Ready():
		t.Fatal("Ready closed before Start")
	default:
	}
	mgr.Start()
	select {
	case <-mgr.Ready():
	default:
		t.Fatal("Ready not closed after Start")
	}
	select {
	case <-mgr.Done():
		t.Fatal("Done closed before Drain")
	default:
	}
	mgr.Drain()
	select {
	case <-mgr.Done():
	default:
		t.Fatal("Done not closed after Drain")
	}
	// Drain is idempotent: a second call returns once draining completes.
	mgr.Drain()
}

// TestManagerParksCorruptCheckpoint: filesystem damage beyond what atomic
// writes can cause (a garbage checkpoint container) parks the campaign in
// FAILED at open instead of silently rerunning it from scratch.
func TestManagerParksCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	meta := Meta{ID: "c00000001", Spec: testSpec(), Status: StatusRunning, Allocations: 2}
	if err := st.Create(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, meta.ID, ckptFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr := newTestManager(t, dir, fastOpts(t))
	mgr.Start()
	defer mgr.Drain()
	info, err := mgr.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusFailed || info.Error == "" || info.Running {
		t.Fatalf("corrupt-checkpoint campaign: %+v", info)
	}
}

// TestManagerSurfacesTransientAndFutureCheckpoint is the other two thirds of
// the taxonomy at manager open: a transient read error on search.ckpt and a
// checkpoint written by a newer build are not damage, so NewManager fails
// with a classifiable error and the campaign's durable record stays RUNNING
// — it must not be parked FAILED. The fault gone, the campaign resumes.
func TestManagerSurfacesTransientAndFutureCheckpoint(t *testing.T) {
	mem := fsim.NewMemFS()
	st, _, err := OpenStoreFS(mem, "/store")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	bench, sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ck, err := search.Allocate(bench, sp, spec.SearchConfig(), nil, nil)
	if err != nil || ck == nil {
		t.Fatalf("first allocation: ck=%v err=%v", ck, err)
	}
	id := "c00000001"
	if err := st.Create(Meta{ID: id, Spec: spec, Status: StatusRunning, Allocations: ck.Allocations}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(id, ck); err != nil {
		t.Fatal(err)
	}
	stillRunning := func(when string) {
		t.Helper()
		if meta, err := st.LoadMeta(id); err != nil || meta.Status != StatusRunning || meta.Error != "" {
			t.Fatalf("%s: on-disk meta = %+v, %v — want untouched RUNNING", when, meta, err)
		}
	}
	opts := fastOpts(t)

	opts.FS = readEIOFS{mem, ckptFile}
	if _, _, err := NewManager("/store", opts); !ckpt.IsTransient(err) {
		t.Fatalf("transient checkpoint read: err %v — want a transient open error", err)
	}
	stillRunning("after EIO")

	path := filepath.Join("/store", id, ckptFile)
	good, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	put := func(raw []byte) {
		t.Helper()
		if err := ckpt.AtomicWriteFS(mem, path, func(w io.Writer) error { _, err := w.Write(raw); return err }); err != nil {
			t.Fatal(err)
		}
	}
	future := bytes.Clone(good)
	binary.BigEndian.PutUint32(future[8:12], binary.BigEndian.Uint32(future[8:12])+1) // the frame's version field
	put(future)
	opts.FS = mem
	if _, _, err := NewManager("/store", opts); !errors.Is(err, ckpt.ErrVersion) {
		t.Fatalf("future-version checkpoint: err %v — want ErrVersion", err)
	}
	stillRunning("after future version")

	put(good)
	mgr := newTestManager(t, "/store", opts)
	mgr.Start()
	defer mgr.Drain()
	waitStatus(t, mgr, id, StatusDone)
}

// TestManagerSyncsMetaFromCheckpoint: meta is written on status changes
// only, so a store's meta is behind its checkpoint by design; the
// checkpoint is the authority and the open resyncs from it. Also drills
// Log()'s partial and not-found answers.
func TestManagerSyncsMetaFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	spec := testSpec()
	spec.Horizon = 2000
	spec.Walltime = 100
	bench, sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ck, err := search.Allocate(bench, sp, spec.SearchConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := "c00000001"
	// Meta recorded behind the checkpoint, PAUSED so the reopened manager
	// does not relaunch it.
	if err := st.Create(Meta{ID: id, Spec: spec, Status: StatusPaused, Allocations: ck.Allocations - 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(id, ck); err != nil {
		t.Fatal(err)
	}
	mgr := newTestManager(t, dir, fastOpts(t))
	mgr.Start()
	defer mgr.Drain()
	info, err := mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Allocations != ck.Allocations {
		t.Fatalf("meta not resynced from checkpoint: %d, want %d", info.Allocations, ck.Allocations)
	}
	// The paused campaign serves its partial log from the checkpoint (the
	// first allocation can cut before any result is recorded, so only the
	// log's existence is guaranteed).
	log, err := mgr.Log(id)
	if err != nil || log == nil {
		t.Fatalf("partial log: %v err=%v", log, err)
	}
	if _, err := mgr.Log("c99999999"); err != ErrNotFound {
		t.Fatalf("unknown-id log error %v", err)
	}
	if _, _, err := mgr.Trace("c99999999", 0); err != ErrNotFound {
		t.Fatalf("unknown-id trace error %v", err)
	}
}
