package campaign

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// Options tunes the supervisor. The zero value selects the documented
// defaults.
type Options struct {
	// BackoffBase is the first restart delay after a campaign panic
	// (default 500ms); each consecutive panic doubles it.
	BackoffBase time.Duration
	// BackoffCap caps the exponential backoff (default 30s) — the Balsam
	// retry-state-machine discipline applied to host processes.
	BackoffCap time.Duration
	// Logf receives supervisor lifecycle messages (nil discards them).
	Logf func(format string, args ...any)
	// FS is the filesystem the store writes through (default fsim.OS).
	// The fault-torture tests inject a fsim.FaultFS or fsim.MemFS here;
	// production always runs the passthrough.
	FS fsim.FS
}

// maxRestarts is how many consecutive panics a campaign survives before
// parking in FAILED. A completed allocation resets the count.
const maxRestarts = 3

func (o Options) withDefaults() Options {
	if o.BackoffBase <= 0 {
		o.BackoffBase = 500 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = fsim.OS
	}
	return o
}

// Backoff returns the restart delay after the given consecutive-panic
// count (1-based): BackoffBase doubled per panic, capped at BackoffCap.
func (o Options) Backoff(consecutive int) time.Duration {
	if consecutive < 1 {
		consecutive = 1
	}
	d := time.Duration(float64(o.BackoffBase) * math.Pow(2, float64(consecutive-1)))
	if d > o.BackoffCap || d <= 0 {
		d = o.BackoffCap
	}
	return d
}

// control is a requested state transition a runner applies at its next
// walltime boundary — the only points where the search state is
// checkpointable, so the only safe places to act on one.
type control int

const (
	ctlNone control = iota
	ctlPause
	ctlCancel
)

// traceLog is the accumulated trace stream of one campaign: events
// snapshotted from the recorder at every persisted boundary, indexed by
// absolute position so HTTP clients can poll incrementally. Bounded by
// traceKeep; dropped counts trimmed oldest events.
type traceLog struct {
	events  []trace.Event
	dropped int64
}

// traceKeep bounds the stream snapshot a campaign retains across
// allocations (oldest events dropped first).
const traceKeep = 1 << 18

func (tl *traceLog) append(evs []trace.Event) {
	tl.events = append(tl.events, evs...)
	if over := len(tl.events) - traceKeep; over > 0 {
		tl.events = append([]trace.Event(nil), tl.events[over:]...)
		tl.dropped += int64(over)
	}
}

func (tl *traceLog) since(cursor int64) ([]trace.Event, int64) {
	next := tl.dropped + int64(len(tl.events))
	if cursor < tl.dropped {
		cursor = tl.dropped
	}
	if cursor >= next {
		return nil, next
	}
	return append([]trace.Event(nil), tl.events[cursor-tl.dropped:]...), next
}

// runtime is one hosted campaign. meta, want, summary, and traces are
// guarded by the manager mutex; bench/sp/cfg/ck/log/rec are owned by the
// runner goroutine while running is true, and quiescent otherwise.
type runtime struct {
	meta    Meta
	want    control
	running bool
	wake    chan struct{}

	bench *candle.Benchmark
	sp    *space.Space
	cfg   search.Config
	ck    *search.Checkpoint
	log   *search.Log

	rec    *trace.Recorder
	traces traceLog

	// summary mirrors the latest persisted partial (or final) log.
	bestReward  float64
	evaluations int
	virtualTime float64
	converged   bool
	consecutive int // consecutive panics since the last completed allocation
}

// Info is a campaign status snapshot served by the HTTP API.
type Info struct {
	Meta
	// Running reports an active runner goroutine (false for paused,
	// terminal, and drained campaigns).
	Running bool `json:"running"`
	// BestReward/Evaluations/VirtualTime/Converged summarize the latest
	// persisted state; zero until the first walltime boundary.
	BestReward  float64 `json:"bestReward"`
	Evaluations int     `json:"evaluations"`
	VirtualTime float64 `json:"virtualTime"`
	Converged   bool    `json:"converged"`
}

// LeaderboardRow is one campaign's entry in the cross-campaign ranking.
type LeaderboardRow struct {
	ID         string  `json:"id"`
	Name       string  `json:"name,omitempty"`
	Bench      string  `json:"bench"`
	Strategy   string  `json:"strategy"`
	Status     Status  `json:"status"`
	BestReward float64 `json:"bestReward"`
	Evals      int     `json:"evaluations"`
}

// ErrConflict marks state transitions rejected because of the campaign's
// current status (HTTP 409); ErrNotFound marks unknown campaign IDs (404);
// ErrDraining rejects submissions during shutdown (503).
var (
	ErrNotFound = fmt.Errorf("campaign: not found")
	ErrConflict = fmt.Errorf("campaign: conflicting state")
	ErrDraining = fmt.Errorf("campaign: server is draining")
	// ErrNoSpace rejects submissions while an allocation's write has failed
	// with ENOSPC (HTTP 507); running campaigns pause at their walltime
	// boundary instead.
	ErrNoSpace = fmt.Errorf("campaign: storage full")
)

// Manager supervises every hosted campaign: it owns the store, one runner
// goroutine per active campaign, and the restart/backoff machinery that
// keeps one misbehaving campaign from wedging the service.
type Manager struct {
	store *Store
	opts  Options

	mu        sync.Mutex
	campaigns map[string]*runtime
	draining  bool
	// diskFull latches when a store write fails with ENOSPC; while set,
	// Health reports the degradation. allocFull marks a latch an
	// allocation's checkpoint or log write set: only a successful
	// allocation write clears it, and Submit is rejected with ErrNoSpace
	// meanwhile, since a creation's small meta write cannot show that an
	// allocation's would fit. A latch only meta writes set clears on any
	// successful store write, and Submit's Create is the write that tries.
	diskFull  bool
	allocFull bool

	wg    sync.WaitGroup
	ready chan struct{}
	done  chan struct{}

	// testHookAllocation, when set (package tests only), runs at the top
	// of every allocation; a panic inside it exercises the supervisor's
	// recovery path exactly like a panic in the search itself.
	testHookAllocation func(id string, allocations int)
}

// NewManager opens the store at dir and loads every recorded campaign
// without starting any runner. Quarantined directory names (unreadable
// meta) are returned for the caller to report. A structurally damaged
// checkpoint parks its campaign FAILED; a transient read error or a
// future-version meta or checkpoint fails the open and changes nothing on
// disk (surfaces).
func NewManager(dir string, opts Options) (*Manager, []string, error) {
	opts = opts.withDefaults()
	store, metas, quarantined, err := loadStore(opts.FS, dir)
	if err != nil {
		return nil, nil, err
	}
	m := &Manager{
		store:     store,
		opts:      opts,
		campaigns: map[string]*runtime{},
		ready:     make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, meta := range metas {
		rt := &runtime{meta: meta, wake: make(chan struct{}, 1)}
		if ck, ok, err := store.LoadCheckpoint(meta.ID); err == nil && ok {
			rt.ck = ck
			// The checkpoint is the authority on progress: meta is written
			// only on status changes, so its count is behind by design.
			if ck.Allocations > rt.meta.Allocations {
				rt.meta.Allocations = ck.Allocations
			}
			rt.refreshSummary(ck.Partial)
		} else if surfaces(err) {
			// Transient I/O or a checkpoint from a newer build is not
			// damage: fail the open, leave the campaign's record untouched.
			return nil, nil, fmt.Errorf("campaign %s: %w", meta.ID, err)
		} else if err != nil {
			// Checkpoint corrupted beyond what atomic writes can cause
			// (filesystem damage): park the campaign instead of silently
			// rerunning it from scratch.
			rt.meta.Status = StatusFailed
			rt.meta.Error = fmt.Sprintf("checkpoint unreadable: %v", err)
			m.opts.Logf("campaign %s: %s", meta.ID, rt.meta.Error)
			_ = m.store.SaveMeta(rt.meta)
		}
		if meta.Status == StatusDone {
			if log, ok, err := store.LoadLog(meta.ID); err == nil && ok {
				rt.log = log
				rt.refreshSummary(log)
			}
		}
		m.campaigns[meta.ID] = rt
	}
	return m, quarantined, nil
}

// Start relaunches every campaign recorded as RUNNING — the recovery step
// after a crash or drain — and marks the manager ready.
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rt := range m.campaigns {
		if rt.meta.Status == StatusRunning && !rt.running {
			m.launchLocked(rt)
		}
	}
	close(m.ready)
}

// Ready is closed once Start has relaunched recovered campaigns; Done is
// closed when Drain has finished (the flow-go ready/done idiom).
func (m *Manager) Ready() <-chan struct{} { return m.ready }
func (m *Manager) Done() <-chan struct{}  { return m.done }

// Submit validates and persists a new campaign and starts its runner.
func (m *Manager) Submit(spec *Spec) (Info, error) {
	if err := spec.Validate(); err != nil {
		return Info{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Info{}, ErrDraining
	}
	if m.allocFull {
		return Info{}, ErrNoSpace
	}
	id, err := m.store.NextID()
	if err != nil {
		return Info{}, err
	}
	meta := Meta{ID: id, Spec: *spec, Status: StatusRunning}
	err = m.store.Create(meta)
	m.noteStoreWriteLocked(err, false)
	if err != nil {
		return Info{}, err
	}
	rt := &runtime{meta: meta, wake: make(chan struct{}, 1)}
	m.campaigns[id] = rt
	m.launchLocked(rt)
	return rt.info(), nil
}

// launchLocked starts a runner goroutine for rt. Caller holds m.mu.
func (m *Manager) launchLocked(rt *runtime) {
	rt.running = true
	m.wg.Add(1)
	go m.runCampaign(rt)
}

// Get returns a campaign's status snapshot.
func (m *Manager) Get(id string) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.campaigns[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return rt.info(), nil
}

// List returns every campaign's status snapshot, ID-sorted.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.campaigns))
	for _, rt := range m.campaigns {
		out = append(out, rt.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Health is the service-level condition snapshot served by healthz.
type Health struct {
	// Status is "ok" while storage is healthy, "degraded" while the
	// manager's disk-full latch holds.
	Status string `json:"status"`
	// DiskFull mirrors the manager's ENOSPC latch.
	DiskFull bool `json:"diskFull"`
	// Draining reports a shutdown in progress.
	Draining bool `json:"draining"`
	// Campaigns counts hosted campaigns, Running the active runners.
	Campaigns int `json:"campaigns"`
	Running   int `json:"running"`
}

// Health returns the service condition: storage state, drain state, and
// runner counts.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{Status: "ok", DiskFull: m.diskFull, Draining: m.draining, Campaigns: len(m.campaigns)}
	if m.diskFull {
		h.Status = "degraded"
	}
	for _, rt := range m.campaigns {
		if rt.running {
			h.Running++
		}
	}
	return h
}

// noteStoreWriteLocked maintains the disk-full latch from a store write's
// outcome; alloc marks an allocation's checkpoint or log write, the only
// kind whose success clears a latch one of them set. Caller holds m.mu.
func (m *Manager) noteStoreWriteLocked(err error, alloc bool) {
	switch {
	case errors.Is(err, syscall.ENOSPC):
		if !m.diskFull {
			m.opts.Logf("store: disk full")
		}
		m.diskFull = true
		m.allocFull = m.allocFull || alloc
	case err == nil && m.diskFull && (alloc || !m.allocFull):
		m.diskFull, m.allocFull = false, false
		m.opts.Logf("store: disk recovered")
	}
}

// Leaderboard ranks campaigns by best reward (ties by ID).
func (m *Manager) Leaderboard() []LeaderboardRow {
	infos := m.List()
	rows := make([]LeaderboardRow, 0, len(infos))
	for _, in := range infos {
		rows = append(rows, LeaderboardRow{
			ID: in.ID, Name: in.Spec.Name, Bench: in.Spec.Bench,
			Strategy: in.Spec.Strategy, Status: in.Status,
			BestReward: in.BestReward, Evals: in.Evaluations,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BestReward != rows[j].BestReward {
			return rows[i].BestReward > rows[j].BestReward
		}
		return rows[i].ID < rows[j].ID
	})
	return rows
}

// Log returns the campaign's latest search log: the final log for DONE
// campaigns, the partial log as of the last persisted boundary otherwise
// (nil when no boundary has been reached yet).
func (m *Manager) Log(id string) (*search.Log, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.campaigns[id]
	if !ok {
		return nil, ErrNotFound
	}
	if rt.log != nil {
		return rt.log, nil
	}
	if rt.meta.Status == StatusDone {
		log, ok, err := m.store.LoadLog(id)
		if err != nil {
			return nil, err
		}
		if ok {
			rt.log = log
			return log, nil
		}
	}
	if rt.ck != nil {
		return rt.ck.Partial, nil
	}
	return nil, nil
}

// Trace returns the campaign's accumulated trace events with absolute
// index >= since, plus the cursor for the next poll.
func (m *Manager) Trace(id string, since int64) ([]trace.Event, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.campaigns[id]
	if !ok {
		return nil, 0, ErrNotFound
	}
	evs, next := rt.traces.since(since)
	return evs, next, nil
}

// Pause asks a running campaign to stop at its next walltime boundary.
// Pausing a paused campaign is a no-op; pausing a terminal one is a
// conflict.
func (m *Manager) Pause(id string) (Info, error) {
	return m.transition(id, func(rt *runtime) (Status, error) {
		switch {
		case rt.meta.Status == StatusPaused:
			return StatusPaused, nil // idempotent
		case rt.meta.Status.Terminal():
			return "", fmt.Errorf("%w: cannot pause a %s campaign", ErrConflict, rt.meta.Status)
		case rt.running:
			rt.want = ctlPause
			wakeup(rt)
			return rt.meta.Status, nil
		}
		return StatusPaused, nil // not running (e.g. drained): record it directly
	})
}

// Resume restarts a paused campaign. Resuming a running campaign is a
// no-op; resuming a terminal one is a conflict.
func (m *Manager) Resume(id string) (Info, error) {
	return m.transition(id, func(rt *runtime) (Status, error) {
		switch {
		case rt.meta.Status == StatusRunning:
			if rt.want == ctlPause { // un-ask a not-yet-applied pause
				rt.want = ctlNone
			}
			return StatusRunning, nil
		case rt.meta.Status.Terminal():
			return "", fmt.Errorf("%w: cannot resume a %s campaign", ErrConflict, rt.meta.Status)
		case m.draining:
			return "", ErrDraining
		}
		return StatusRunning, nil
	})
}

// Cancel terminates a campaign at its next walltime boundary (immediately
// when paused). Cancelling twice is a no-op; cancelling a DONE or FAILED
// campaign is a conflict.
func (m *Manager) Cancel(id string) (Info, error) {
	return m.transition(id, func(rt *runtime) (Status, error) {
		switch {
		case rt.meta.Status == StatusCancelled:
			return StatusCancelled, nil // idempotent
		case rt.meta.Status.Terminal():
			return "", fmt.Errorf("%w: cannot cancel a %s campaign", ErrConflict, rt.meta.Status)
		case rt.running:
			rt.want = ctlCancel
			wakeup(rt)
			return rt.meta.Status, nil
		}
		return StatusCancelled, nil
	})
}

// transition runs a guarded state change and returns the updated snapshot.
// decide names the status the campaign moves to now (its current one when
// the change waits for the runner's next boundary). A new status is
// persisted before it is adopted, so a failed meta write leaves the campaign
// as it was; a campaign moved to RUNNING gets its runner only then.
func (m *Manager) transition(id string, decide func(*runtime) (Status, error)) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.campaigns[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	to, err := decide(rt)
	if err == nil && to != rt.meta.Status {
		meta := rt.meta
		meta.Status = to
		err = m.store.SaveMeta(meta)
		m.noteStoreWriteLocked(err, false)
		if err == nil {
			rt.meta.Status = to
			if to == StatusRunning && !rt.running {
				m.launchLocked(rt)
			}
		}
	}
	return rt.info(), err
}

// Drain is the graceful-shutdown path: stop accepting submissions, let
// every running campaign cut at its next walltime boundary (its state is
// already persisted there), wait for all runners, and close Done. RUNNING
// statuses stay RUNNING on disk, so the next Start resumes them.
func (m *Manager) Drain() {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.draining = true
	for _, rt := range m.campaigns {
		wakeup(rt) // interrupt backoff sleeps
	}
	m.mu.Unlock()
	m.wg.Wait()
	close(m.done)
}

func wakeup(rt *runtime) {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// info builds a status snapshot. Caller holds m.mu.
func (rt *runtime) info() Info {
	return Info{
		Meta:       rt.meta,
		Running:    rt.running,
		BestReward: rt.bestReward, Evaluations: rt.evaluations,
		VirtualTime: rt.virtualTime, Converged: rt.converged,
	}
}

// refreshSummary updates the leaderboard view from a partial or final log.
func (rt *runtime) refreshSummary(log *search.Log) {
	if log == nil {
		return
	}
	// True max over successful evaluations — rewards can be negative
	// (scaled problems under heavy fidelity cuts), so no zero floor.
	best, found := 0.0, false
	for _, r := range log.Results {
		if r.Failed {
			continue
		}
		if !found || r.Reward > best {
			best, found = r.Reward, true
		}
	}
	rt.bestReward = best
	rt.evaluations = len(log.Results)
	rt.virtualTime = log.EndTime
	rt.converged = log.Converged
}

// runCampaign is the per-campaign supervisor loop: one allocation per
// iteration, controls applied at boundaries, panics recovered with capped
// backoff, terminal failures parked without touching sibling campaigns.
// The runner is (re)built from the spec and rt.ck, the last checkpoint whose
// save succeeded, so a restart continues exactly where a process restart
// would, without reading the store.
func (m *Manager) runCampaign(rt *runtime) {
	defer m.wg.Done()
	for rebuild := true; ; {
		if rebuild {
			if err := m.prepareRunner(rt); err != nil {
				m.park(rt, fmt.Sprintf("prepare: %v", err))
				return
			}
			rebuild = false
		}
		// Apply controls and drain at the boundary before spending work.
		m.mu.Lock()
		want := rt.want
		rt.want = ctlNone
		switch {
		case want == ctlCancel:
			m.stopLocked(rt, StatusCancelled, "cancelled")
		case want == ctlPause:
			m.stopLocked(rt, StatusPaused, "paused")
		case m.draining:
			m.stopLocked(rt, StatusRunning, "drained")
		}
		stopped := !rt.running
		m.mu.Unlock()
		if stopped {
			return
		}

		finished, err := m.runAllocationStep(rt)
		if err != nil && !errors.Is(err, syscall.ENOSPC) {
			if !m.backoffRestart(rt, err) {
				return
			}
			rebuild = true
		} else if err != nil || finished {
			m.mu.Lock()
			if err == nil {
				rt.meta.Error = ""
				m.stopLocked(rt, StatusDone, fmt.Sprintf("done (best %.4f)", rt.bestReward))
			} else {
				// Full disk: the allocation's work cannot be persisted, so
				// burning restarts cannot help. Pause with state intact; a
				// later Resume (after space is freed) re-runs the unpersisted
				// allocation from the last durable checkpoint. The meta write
				// is best-effort: if the record stays RUNNING, a process
				// restart converges the same way, since the checkpoint, not
				// meta, is the authority. The latch holds even if a sibling's
				// write cleared it meanwhile.
				m.noteStoreWriteLocked(err, true)
				rt.meta.Error = fmt.Sprintf("storage full: %v", err)
				m.stopLocked(rt, StatusPaused, "paused: storage full")
			}
			m.mu.Unlock()
			return
		}
	}
}

// prepareRunner builds (or rebuilds, after a restart) the campaign's
// benchmark, space, config, and trace recorder from its spec. Pure
// reconstruction: with rt.ck, replaying from here is bit-identical to never
// having stopped, and the fresh recorder resumes the trace stream at the
// checkpoint cut, so the campaign's copy stays gap-free.
func (m *Manager) prepareRunner(rt *runtime) error {
	m.mu.Lock()
	spec := rt.meta.Spec
	m.mu.Unlock()
	bench, sp, err := spec.Build()
	if err != nil {
		return err
	}
	rt.bench, rt.sp = bench, sp
	rt.cfg = spec.SearchConfig()
	rt.rec = trace.NewRecorder(0)
	return nil
}

// runAllocationStep runs exactly one walltime allocation and persists its
// outcome: the checkpoint at a cut (meta trails it), the log at
// completion. rt.ck and the summary change only once that write succeeds.
// A panic anywhere inside — test hook, search, persistence — becomes an error
// of its first line for the backoff machinery; the rest of its text (an
// estimation's carries its stack) and this goroutine's stack are logged.
func (m *Manager) runAllocationStep(rt *runtime) (finished bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			msg, _, _ := strings.Cut(fmt.Sprint(p), "\n")
			err = fmt.Errorf("allocation panic: %s", msg)
			m.opts.Logf("campaign %s: allocation panic: %v\n%s", rt.meta.ID, p, debug.Stack())
		}
	}()
	if hook := m.testHookAllocation; hook != nil {
		hook(rt.meta.ID, rt.meta.Allocations)
	}
	log, next, err := search.Allocate(rt.bench, rt.sp, rt.cfg, rt.ck, rt.rec)
	if err != nil {
		return false, err
	}
	if next != nil {
		err = m.store.SaveCheckpoint(rt.meta.ID, next)
	} else {
		err = m.store.SaveLog(rt.meta.ID, log)
	}
	// The boundary's events move from the ring to traces: each is kept once,
	// and the next boundary copies only what its allocation emitted.
	evs := rt.rec.Events()
	rt.rec.Reset()

	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteStoreWriteLocked(err, true)
	if err != nil {
		return false, err
	}
	rt.traces.append(evs)
	rt.consecutive = 0
	if next != nil {
		rt.ck = next
		rt.meta.Allocations = next.Allocations
		rt.refreshSummary(next.Partial)
		return false, nil
	}
	rt.log = log
	rt.ck = nil
	rt.refreshSummary(log)
	return true, nil
}

// backoffRestart handles a failed allocation: record the error, park the
// campaign in FAILED once it exhausts maxRestarts consecutive attempts,
// otherwise sleep the capped exponential backoff (interruptible by
// cancel/drain, which the next boundary applies). Transient I/O errors
// (EIO; see ckpt.IsTransient) never park: a flaky device is an environment
// condition, not a campaign defect, so the supervisor keeps retrying at the
// backoff cap until the device recovers or an operator cancels. Returns
// false when the runner goroutine should exit.
func (m *Manager) backoffRestart(rt *runtime, cause error) bool {
	m.mu.Lock()
	rt.consecutive++
	rt.meta.Restarts++
	rt.meta.Error = cause.Error()
	attempt := rt.consecutive
	m.saveMetaLocked(rt)
	m.mu.Unlock()
	if attempt > maxRestarts && !ckpt.IsTransient(cause) {
		m.park(rt, fmt.Sprintf("gave up after %d consecutive restarts: %v", attempt-1, cause))
		return false
	}
	delay := m.opts.Backoff(attempt)
	m.opts.Logf("campaign %s: %v — restart %d/%d in %v", rt.meta.ID, cause, attempt, maxRestarts, delay)
	select {
	case <-time.After(delay):
	case <-rt.wake:
	}
	return true
}

// park moves a campaign to FAILED with the given error. Sibling campaigns
// are untouched — FAILED is a per-campaign terminal state, never a server
// condition.
func (m *Manager) park(rt *runtime, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt.meta.Error = msg
	m.stopLocked(rt, StatusFailed, "FAILED: "+msg)
}

// stopLocked ends rt's runner in status, persisting meta when the status
// changes: a drained campaign stays RUNNING on disk, so the next Start
// resumes it. Caller holds m.mu.
func (m *Manager) stopLocked(rt *runtime, status Status, why string) {
	if status != rt.meta.Status {
		rt.meta.Status = status
		m.saveMetaLocked(rt)
	}
	rt.running = false
	m.opts.Logf("campaign %s: %s at allocation %d", rt.meta.ID, why, rt.meta.Allocations)
}

// saveMetaLocked persists rt.meta, logging (not propagating) write errors:
// meta persistence failing must degrade observability, not kill the
// runner. Caller holds m.mu.
func (m *Manager) saveMetaLocked(rt *runtime) {
	err := m.store.SaveMeta(rt.meta)
	m.noteStoreWriteLocked(err, false)
	if err != nil {
		m.opts.Logf("campaign %s: persist meta: %v", rt.meta.ID, err)
	}
}
