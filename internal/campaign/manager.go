package campaign

import (
	"errors"
	"fmt"
	"math"
	"sort"
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

	rec       *trace.Recorder
	recCursor int64
	traces    traceLog

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
	// ErrNoSpace rejects submissions while the store's disk is full (HTTP
	// 507); running campaigns pause at their walltime boundary instead.
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
	// diskFull latches when a store write fails with ENOSPC and clears on
	// the next successful store write. While set, Submit is rejected with
	// ErrNoSpace and Health reports the degradation.
	diskFull bool

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
	store, quarantined, err := OpenStoreFS(opts.FS, dir)
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
	metas, err := store.List()
	if err != nil {
		return nil, nil, err
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
	if m.diskFull {
		return Info{}, ErrNoSpace
	}
	id, err := m.store.NextID()
	if err != nil {
		return Info{}, err
	}
	meta := Meta{ID: id, Spec: *spec, Status: StatusRunning}
	if err := m.store.Create(meta); err != nil {
		m.noteStoreWriteLocked(err)
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
	// Status is "ok" while storage is healthy, "degraded" once a store
	// write has failed with ENOSPC and no write has succeeded since.
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

// noteStoreWrite maintains the diskFull latch from a store-write outcome.
func (m *Manager) noteStoreWrite(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.noteStoreWriteLocked(err)
}

// noteStoreWriteLocked is noteStoreWrite for a caller holding m.mu.
func (m *Manager) noteStoreWriteLocked(err error) {
	if full := errors.Is(err, syscall.ENOSPC); full && !m.diskFull {
		m.diskFull = true
		m.opts.Logf("store: disk full; rejecting submissions until a write succeeds")
	} else if err == nil && m.diskFull {
		m.diskFull = false
		m.opts.Logf("store: disk recovered; accepting submissions again")
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
	return m.transition(id, func(rt *runtime) error {
		switch {
		case rt.meta.Status == StatusPaused:
			return nil // idempotent
		case rt.meta.Status.Terminal():
			return fmt.Errorf("%w: cannot pause a %s campaign", ErrConflict, rt.meta.Status)
		}
		if rt.running {
			rt.want = ctlPause
			wakeup(rt)
			return nil
		}
		// Not running (e.g. drained): record the pause directly.
		rt.meta.Status = StatusPaused
		return m.store.SaveMeta(rt.meta)
	})
}

// Resume restarts a paused campaign. Resuming a running campaign is a
// no-op; resuming a terminal one is a conflict.
func (m *Manager) Resume(id string) (Info, error) {
	return m.transition(id, func(rt *runtime) error {
		switch {
		case rt.meta.Status == StatusRunning:
			if rt.want == ctlPause { // un-ask a not-yet-applied pause
				rt.want = ctlNone
			}
			return nil
		case rt.meta.Status.Terminal():
			return fmt.Errorf("%w: cannot resume a %s campaign", ErrConflict, rt.meta.Status)
		}
		if m.draining {
			return ErrDraining
		}
		rt.meta.Status = StatusRunning
		if err := m.store.SaveMeta(rt.meta); err != nil {
			return err
		}
		if !rt.running {
			m.launchLocked(rt)
		}
		return nil
	})
}

// Cancel terminates a campaign at its next walltime boundary (immediately
// when paused). Cancelling twice is a no-op; cancelling a DONE or FAILED
// campaign is a conflict.
func (m *Manager) Cancel(id string) (Info, error) {
	return m.transition(id, func(rt *runtime) error {
		switch rt.meta.Status {
		case StatusCancelled:
			return nil // idempotent
		case StatusDone, StatusFailed:
			return fmt.Errorf("%w: cannot cancel a %s campaign", ErrConflict, rt.meta.Status)
		}
		if rt.running {
			rt.want = ctlCancel
			wakeup(rt)
			return nil
		}
		rt.meta.Status = StatusCancelled
		return m.store.SaveMeta(rt.meta)
	})
}

// transition runs a guarded state change and returns the updated snapshot.
func (m *Manager) transition(id string, apply func(*runtime) error) (Info, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt, ok := m.campaigns[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	if err := apply(rt); err != nil {
		return rt.info(), err
	}
	return rt.info(), nil
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
// iteration, control applied at boundaries, panics recovered with capped
// backoff, terminal failures parked without touching sibling campaigns.
func (m *Manager) runCampaign(rt *runtime) {
	defer m.wg.Done()
	id := rt.meta.ID
	if err := m.prepareRunner(rt); err != nil {
		m.park(rt, fmt.Sprintf("prepare: %v", err))
		return
	}
	for {
		// Apply controls and drain at the boundary before spending work.
		m.mu.Lock()
		stop := true
		switch {
		case rt.want == ctlCancel:
			rt.want = ctlNone
			rt.meta.Status = StatusCancelled
			m.saveMetaLocked(rt)
			m.opts.Logf("campaign %s: cancelled at allocation %d", id, rt.meta.Allocations)
		case rt.want == ctlPause:
			rt.want = ctlNone
			rt.meta.Status = StatusPaused
			m.saveMetaLocked(rt)
			m.opts.Logf("campaign %s: paused at allocation %d", id, rt.meta.Allocations)
		case m.draining:
			m.opts.Logf("campaign %s: drained at allocation %d", id, rt.meta.Allocations)
		default:
			stop = false
		}
		if stop {
			rt.running = false
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()

		finished, err := m.runAllocationStep(rt)
		if err != nil {
			if errors.Is(err, syscall.ENOSPC) {
				// Full disk: the allocation's work cannot be persisted, so
				// burning restarts cannot help. Pause at this boundary with
				// state intact; a later Resume (after space is freed) re-runs
				// the unpersisted allocation from the last durable checkpoint.
				m.pauseNoSpace(rt, err)
				return
			}
			if !m.backoffRestart(rt, err) {
				return
			}
			continue
		}
		if finished {
			m.mu.Lock()
			rt.meta.Status = StatusDone
			rt.meta.Error = ""
			m.saveMetaLocked(rt)
			rt.running = false
			m.opts.Logf("campaign %s: done after %d allocations (best %.4f)",
				id, rt.meta.Allocations, rt.bestReward)
			m.mu.Unlock()
			return
		}
	}
}

// prepareRunner builds (or rebuilds, after a restart) the campaign's
// benchmark, space, config, and trace recorder from its spec and latest
// persisted checkpoint. Pure reconstruction — replaying from here is
// bit-identical to never having stopped.
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
	rt.recCursor = 0
	return nil
}

// runAllocationStep runs exactly one walltime allocation and persists its
// outcome: the checkpoint at a cut (meta trails it), the log at
// completion. A panic anywhere inside — test hook, search, persistence —
// is returned as an error for the backoff machinery.
func (m *Manager) runAllocationStep(rt *runtime) (finished bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("allocation panic: %v", p)
		}
	}()
	if hook := m.testHookAllocation; hook != nil {
		hook(rt.meta.ID, rt.meta.Allocations)
	}
	log, next, err := search.Allocate(rt.bench, rt.sp, rt.cfg, rt.ck, rt.rec)
	if err != nil {
		return false, err
	}
	id := rt.meta.ID
	if next != nil {
		if err := m.store.SaveCheckpoint(id, next); err != nil {
			m.noteStoreWrite(err)
			return false, err
		}
	} else if err := m.store.SaveLog(id, log); err != nil {
		m.noteStoreWrite(err)
		return false, err
	}
	m.noteStoreWrite(nil)
	evs, cursor := rt.rec.EventsSince(rt.recCursor)
	rt.recCursor = cursor

	m.mu.Lock()
	defer m.mu.Unlock()
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
// cancel/drain) and rebuild the runner from the last persisted checkpoint.
// Transient I/O errors (EIO; see ckpt.IsTransient) never park: a flaky
// device is an environment condition, not a campaign defect, so the
// supervisor keeps retrying at the backoff cap until the device recovers
// or an operator cancels. Returns false when the runner goroutine should
// exit.
func (m *Manager) backoffRestart(rt *runtime, cause error) bool {
	id := rt.meta.ID
	transient := ckpt.IsTransient(cause)
	m.mu.Lock()
	rt.consecutive++
	rt.meta.Restarts++
	rt.meta.Error = cause.Error()
	attempt := rt.consecutive
	m.saveMetaLocked(rt)
	m.mu.Unlock()
	if attempt > maxRestarts && !transient {
		m.park(rt, fmt.Sprintf("gave up after %d consecutive restarts: %v", attempt-1, cause))
		return false
	}
	delay := m.opts.Backoff(attempt)
	m.opts.Logf("campaign %s: %v — restart %d/%d in %v", id, cause, attempt, maxRestarts, delay)
	select {
	case <-time.After(delay):
	case <-rt.wake:
		// Woken for a control change or drain; the boundary check at the
		// top of runCampaign applies it before the next allocation.
	}
	// Discard the possibly-inconsistent in-memory search state and
	// restart from the last persisted checkpoint — exactly what a process
	// restart would do. A transient reload failure retries on the same
	// backoff schedule (interruptible, so drains and cancels still land);
	// corruption parks, as no retry can repair bytes.
	var ck *search.Checkpoint
	for reloadAttempt := attempt; ; reloadAttempt++ {
		loaded, ok, err := m.store.LoadCheckpoint(id)
		if err == nil {
			if ok {
				ck = loaded
			}
			break
		}
		if !ckpt.IsTransient(err) {
			m.park(rt, fmt.Sprintf("reload checkpoint: %v", err))
			return false
		}
		m.mu.Lock()
		interrupted := m.draining || rt.want != ctlNone
		m.mu.Unlock()
		if interrupted {
			// Keep the last successfully persisted checkpoint (the only
			// value rt.ck ever holds — it matches the disk); the boundary
			// check applies the pending control before another allocation.
			ck = rt.ck
			break
		}
		delay := m.opts.Backoff(reloadAttempt)
		m.opts.Logf("campaign %s: reload checkpoint: %v — retry in %v", id, err, delay)
		select {
		case <-time.After(delay):
		case <-rt.wake:
		}
	}
	rt.ck = ck
	// prepareRunner resets the recorder; the trace stream accumulated up
	// to the last persisted boundary stays valid, and the fresh recorder
	// resumes from the checkpoint cut, so the snapshot stays gap-free.
	if err := m.prepareRunner(rt); err != nil {
		m.park(rt, fmt.Sprintf("rebuild runner: %v", err))
		return false
	}
	return true
}

// pauseNoSpace stops a runner whose boundary persistence hit a full disk:
// the campaign parks in PAUSED (not FAILED — nothing is wrong with it),
// the manager latches diskFull, and the meta write is best-effort (the
// disk is full; the on-disk record may stay RUNNING, in which case a
// process restart re-runs the lost allocation from the last durable
// checkpoint and converges — the checkpoint, not meta, is the authority).
func (m *Manager) pauseNoSpace(rt *runtime, cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.diskFull = true
	rt.meta.Status = StatusPaused
	rt.meta.Error = fmt.Sprintf("storage full: %v", cause)
	m.saveMetaLocked(rt)
	rt.running = false
	m.opts.Logf("campaign %s: paused at allocation %d: storage full", rt.meta.ID, rt.meta.Allocations)
}

// park moves a campaign to FAILED with the given error. Sibling campaigns
// are untouched — FAILED is a per-campaign terminal state, never a server
// condition.
func (m *Manager) park(rt *runtime, msg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rt.meta.Status = StatusFailed
	rt.meta.Error = msg
	m.saveMetaLocked(rt)
	rt.running = false
	m.opts.Logf("campaign %s: FAILED: %s", rt.meta.ID, msg)
}

// saveMetaLocked persists rt.meta, logging (not propagating) write errors:
// meta persistence failing must degrade observability, not kill the
// runner. Caller holds m.mu.
func (m *Manager) saveMetaLocked(rt *runtime) {
	if err := m.store.SaveMeta(rt.meta); err != nil {
		m.opts.Logf("campaign %s: persist meta: %v", rt.meta.ID, err)
	}
}
