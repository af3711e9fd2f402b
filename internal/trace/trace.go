// Package trace is nasgo's virtual-clock observability layer: a structured
// event recorder threaded through the whole execution stack — hpc.Sim event
// dispatch, fault-model node transitions, the Balsam job state machine, the
// evaluator's cache and task lifecycle, parameter-server barriers, and the
// search agents' phase machines.
//
// The paper's entire evaluation (§5, Figures 4–13) is built from post-hoc
// traces of the search: reward trajectories, node utilization, queue depths.
// This package makes that record first class. Every event is keyed by
// *virtual* time (hpc.Sim seconds, never wall time) and no event carries a
// host measurement, so two same-seed runs produce byte-identical traces on
// any host, core count or evaluator worker count — the golden-trace
// determinism oracle in internal/search — and a run chained across
// checkpoint/resume boundaries concatenates seamlessly with its
// predecessor's trace.
//
// Invariants, mirroring the zero-value hpc.FaultModel rule:
//
//   - A nil *Recorder is fully usable and records nothing: every method is
//     nil-safe, so instrumented code calls rec.Emit(...) unconditionally.
//     With a nil (or any) recorder the simulated machine is bit-for-bit
//     identical to the uninstrumented one — recording never draws
//     randomness, never schedules events, never changes control flow
//     (internal/search's FuzzScenario pins this).
//   - The hot path costs one ring-buffer store. Events are flat value
//     structs; no maps, no closures, no formatting at emit time.
//
// Exporters (export.go) render a recorded trace as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing, one "process" per simulated
// node), as a flat JSONL event log with a strict round-tripping decoder,
// and as an aggregate metrics summary. internal/analytics consumes the
// event stream directly: its *FromTrace functions rebuild utilization
// series and reward trajectories as views over the trace.
//
// Like hpc.Sim, a Recorder is single-goroutine: all emits happen from
// simulator callbacks on the caller's goroutine.
package trace

// Event categories: the component that emitted the event.
const (
	// CatSim is the discrete-event simulator itself.
	CatSim = "sim"
	// CatFault is the fault model: node down/up transitions.
	CatFault = "fault"
	// CatBalsam is the workflow service: job state machine, queue depth,
	// busy/down node counters.
	CatBalsam = "balsam"
	// CatEval is the evaluator: cache hits, task submissions, results.
	CatEval = "eval"
	// CatPS is the parameter server: barrier waits, window flushes,
	// gradient deliveries.
	CatPS = "ps"
	// CatSearch is the search layer: agent phase changes, convergence.
	CatSearch = "search"
	// CatCkpt marks checkpoint cut and resume points. These are the only
	// events a chained run records that an uninterrupted run does not;
	// WithoutCat(events, CatCkpt) strips them before trace comparison.
	CatCkpt = "ckpt"
	// CatPool names the worker-pool events found in traces recorded by
	// older builds (their Dur fields were wall-clock seconds). Nothing
	// emits it any more: host measurements never enter the trace stream.
	// The constant stays so consumers can filter those old traces.
	CatPool = "pool"
)

// Event names (the taxonomy; see DESIGN.md §10).
const (
	// EvDispatch: the simulator processed one queued event (CatSim).
	EvDispatch = "dispatch"

	// EvNodeDown / EvNodeUp: fault-model transitions (CatFault).
	EvNodeDown = "node.down"
	EvNodeUp   = "node.up"

	// Balsam job state machine (CatBalsam).
	EvJobSubmit  = "job.submit"
	EvJobRun     = "job.run"
	EvJobDone    = "job.done"
	EvJobTimeout = "job.timeout"
	EvJobError   = "job.run_error"
	EvJobRestart = "job.restart_ready"
	EvJobFailed  = "job.failed"
	// Balsam counters (CatBalsam, KindCounter).
	EvQueueDepth = "queue.depth"
	EvBusyNodes  = "nodes.busy"
	EvDownNodes  = "nodes.down"

	// Evaluator lifecycle (CatEval).
	EvCacheHit     = "cache.hit"
	EvTaskSubmit   = "task.submit"
	EvCompileError = "compile.error"
	EvResult       = "result"

	// Parameter server (CatPS).
	EvBarrierWait    = "barrier.wait"
	EvBarrierRelease = "barrier.release"
	EvWindowFlush    = "window.flush"
	EvDeliver        = "deliver"

	// Search agents (CatSearch).
	EvPhase     = "phase"
	EvConverged = "converged"

	// Checkpoint marks (CatCkpt).
	EvCut    = "cut"
	EvResume = "resume"
)

// Event kinds, selecting the Chrome trace_event phase on export.
const (
	// KindInstant is a point event ("i").
	KindInstant = 0
	// KindSpan is a completed interval ("X"): the event is emitted at the
	// interval's END, with Dur holding its length in virtual seconds.
	KindSpan = 1
	// KindCounter is a sampled counter value ("C"): Value holds the new
	// reading.
	KindCounter = 2
)

// None marks an event's Node or Agent as not applicable.
const None = -1

// DefaultCapacity is the ring-buffer size NewRecorder(0) allocates: large
// enough that quickstart- and test-scale searches never wrap.
const DefaultCapacity = 1 << 18

// Event is one structured trace record. The struct is flat — no pointers,
// no maps — so emitting costs a single ring-buffer store and events
// round-trip exactly through the JSONL codec.
//
// Values must be finite: the virtual clock never produces NaN/Inf, and the
// evaluator converts non-finite rewards into failed results before they
// reach the trace.
type Event struct {
	// Time is the virtual time in seconds (stamped by the Recorder).
	Time float64 `json:"t"`
	// Dur is the span length in virtual seconds (KindSpan only).
	Dur float64 `json:"d,omitempty"`
	// Kind is KindInstant, KindSpan, or KindCounter.
	Kind int `json:"k,omitempty"`
	// Cat is the emitting component (Cat* constants).
	Cat string `json:"cat"`
	// Name identifies the event within its category (Ev* constants).
	Name string `json:"name"`
	// Node is the simulated worker node, or None.
	Node int `json:"node"`
	// Agent is the search agent, or None.
	Agent int `json:"agent"`
	// Job is the Balsam job ID (0 when not job-scoped).
	Job int64 `json:"job,omitempty"`
	// Value is the numeric payload: counter reading, reward, attempt
	// count, backoff seconds — per-name semantics documented in DESIGN.md.
	Value float64 `json:"v,omitempty"`
	// Detail is an optional short string payload (architecture key, phase
	// name, error text). Always drawn from already-deterministic strings.
	Detail string `json:"detail,omitempty"`
}

// Recorder is a fixed-capacity ring buffer of events stamped with the
// virtual clock. The zero capacity means DefaultCapacity; once full, the
// oldest events are overwritten (Dropped counts them).
type Recorder struct {
	clock   func() float64
	cap     int
	buf     []Event
	start   int
	dropped int64
}

// NewRecorder returns a recorder with the given ring capacity (0 or
// negative selects DefaultCapacity). The ring grows lazily: capacity is an
// upper bound, not an eager allocation.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// AttachClock points the recorder at a virtual clock (hpc.Sim.Now). The
// search runner calls this when it builds or restores its simulator, so
// one recorder can follow a run across checkpoint/resume boundaries.
// Nil-safe.
func (r *Recorder) AttachClock(clock func() float64) {
	if r == nil {
		return
	}
	r.clock = clock
}

// Emit records ev at the current virtual time (ev.Time is overwritten when
// a clock is attached; without one, the caller's Time stands). Nil-safe:
// on a nil recorder this is a no-op, so instrumented code never branches.
// Emit stays within the inlining budget, so with a nil recorder an emit site
// costs one compare and never copies the event (scripts/check.sh holds it).
func (r *Recorder) Emit(ev Event) {
	if r != nil {
		r.emit(ev)
	}
}

func (r *Recorder) emit(ev Event) {
	if r.clock != nil {
		ev.Time = r.clock()
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.start] = ev
	r.start++
	if r.start == r.cap {
		r.start = 0
	}
	r.dropped++
}

// Preallocate eagerly grows the ring buffer to its full capacity, so that
// every subsequent Emit is a pure store — no append growth ever again. The
// lazy-growth default is right for short traces; allocation-sensitive
// steady-state loops (balsam's TestShortSimAllocs, the simbench experiment)
// call this once up front. Buffered events and the drop counter are
// untouched. Nil-safe.
func (r *Recorder) Preallocate() {
	if r == nil || cap(r.buf) >= r.cap {
		return
	}
	buf := make([]Event, len(r.buf), r.cap)
	copy(buf, r.buf)
	r.buf = buf
}

// Dropped returns how many events the ring has overwritten. Nil-safe.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Total returns the absolute number of events emitted over the recorder's
// lifetime, including any the ring has since overwritten. Together with
// EventsSince it gives consumers a stable cursor into the stream. Nil-safe.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.dropped + int64(len(r.buf))
}

// EventsSince returns a copy of the still-buffered events whose absolute
// stream index is >= since, along with the cursor to pass next time
// (Total at the moment of the call). A caller polling EventsSince between
// quiescent points — e.g. the campaign service at allocation boundaries —
// reconstructs the complete stream incrementally, preserving events the
// ring would eventually overwrite. If since is older than the oldest
// buffered event, the gap has been dropped; the returned slice starts at
// the oldest survivor. Not synchronized: call from the goroutine driving
// the simulation, or while it is quiescent. Nil-safe.
func (r *Recorder) EventsSince(since int64) ([]Event, int64) {
	if r == nil {
		return nil, 0
	}
	next := r.Total()
	if since < r.dropped {
		since = r.dropped
	}
	if since >= next {
		return nil, next
	}
	all := r.Events()
	return all[since-r.dropped:], next
}

// Events returns the buffered events oldest-first as a copy. Nil-safe.
func (r *Recorder) Events() []Event {
	if r == nil || len(r.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Reset drops all buffered events (capacity and clock are kept). Nil-safe.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.buf = r.buf[:0]
	r.start = 0
	r.dropped = 0
}

// Filter returns the events for which keep returns true, preserving order.
func Filter(events []Event, keep func(Event) bool) []Event {
	var out []Event
	for _, ev := range events {
		if keep(ev) {
			out = append(out, ev)
		}
	}
	return out
}

// WithoutCat drops every event of the given category — most usefully
// CatCkpt, the only category whose events differ between an uninterrupted
// run and the same run chained across checkpoint/resume boundaries.
func WithoutCat(events []Event, cat string) []Event {
	return Filter(events, func(ev Event) bool { return ev.Cat != cat })
}
