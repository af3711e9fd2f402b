// Package balsam simulates the Balsam workflow service the paper uses to
// run reward-estimation tasks on Theta (§4, Fig. 3): a job database, a
// pilot-job launcher that dispatches queued jobs onto idle worker nodes,
// and the utilization monitoring the paper's Figures 5, 6, and 9 report.
//
// The real Balsam is a Django/PostgreSQL service polled by MPI ranks; here
// the database is in memory and the launcher runs on the discrete-event
// simulator, but the state machine (CREATED → RUNNING → JOB_FINISHED, with
// RUN_TIMEOUT for killed tasks and RUN_ERROR → RESTART_READY → … → FAILED
// for tasks whose node dies) and the scheduling dynamics — FIFO queue, one
// job per node, dispatch on idle — are preserved, because those dynamics
// are what produce the paper's utilization curves.
//
// Fault injection: a Service built with NewServiceWithOptions and a nonzero
// hpc.FaultModel tracks per-node up/down state in a NodePool, kills jobs
// whose node dies mid-run, requeues them with capped exponential backoff in
// virtual time (terminal FAILED after MaxRetries), and slows straggling
// jobs. Utilization accounting distinguishes busy, idle, and dead
// node-seconds, so MeanUtilization and UtilizationSeries report the busy
// fraction of *available* capacity. With the zero FaultModel the service
// behaves bit-for-bit like the fault-free original.
package balsam

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"sort"

	"nasgo/internal/hpc"
	"nasgo/internal/rng"
	"nasgo/internal/trace"
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateCreated means queued, waiting for a free node.
	StateCreated JobState = "CREATED"
	// StateRunning means executing on a worker node.
	StateRunning JobState = "RUNNING"
	// StateFinished means completed normally.
	StateFinished JobState = "JOB_FINISHED"
	// StateTimeout means the task hit its wall-clock limit and was killed
	// after producing a partial result.
	StateTimeout JobState = "RUN_TIMEOUT"
	// StateRunError means the job's node died mid-run; the job waits out
	// its retry backoff in this state.
	StateRunError JobState = "RUN_ERROR"
	// StateRestartReady means a killed job finished its backoff and is
	// queued for another attempt.
	StateRestartReady JobState = "RESTART_READY"
	// StateFailed is terminal: the job was killed more than MaxRetries
	// times and will not run again.
	StateFailed JobState = "FAILED"
)

// Job is one reward-estimation task.
type Job struct {
	ID      int64
	AgentID int
	// Key identifies the architecture being evaluated.
	Key string
	// Duration is the task's virtual execution time in seconds (before any
	// straggler slowdown).
	Duration float64
	// TimedOut marks a task that will end in StateTimeout.
	TimedOut bool
	State    JobState
	// Attempts counts how many times the job started running on a node.
	Attempts int
	// Node is the worker node currently running the job (-1 when none).
	Node int

	SubmitTime, StartTime, EndTime float64

	// Payload carries the evaluator's result through the queue; balsam
	// treats it as opaque.
	Payload interface{}
	// OnDone fires when the job reaches a terminal state (JOB_FINISHED,
	// RUN_TIMEOUT, or FAILED).
	OnDone func(*Job)
}

// jobEvent is one pending simulator event the service owns — a job's
// completion, its requeue after backoff, or a restored stale no-op. It
// implements hpc.Handler and is recycled through the service's free list,
// so the steady-state dispatch cycle schedules without allocating. A record
// is distinct per dispatch and deliberately NOT embedded in the Job: after
// a kill, the orphaned completion of the dead attempt and the completion of
// the retry coexist in the event queue, and sharing a record would let the
// stale one fire as valid.
type jobEvent struct {
	s       *Service
	job     *Job
	attempt int
	kind    int
	// nextFree links recycled records into the service's free list.
	nextFree *jobEvent
}

const (
	evComplete = iota
	evRequeue
	// evStale is a restored orphaned completion: its job is gone, so it
	// fires as a no-op that only advances the clock.
	evStale
)

// Fire dispatches the event when the simulator reaches its (time, seq)
// slot.
func (e *jobEvent) Fire() {
	switch e.kind {
	case evComplete:
		e.s.complete(e)
	case evRequeue:
		e.s.requeue(e)
	case evStale:
		e.s.recycle(e)
	}
}

// live reports whether a pending event will still act when it fires. A
// requeue always does; a completion only while its job is still on the
// attempt that scheduled it — after a kill it is the orphan of the dead
// attempt, a no-op that still advances the clock and so must cross a
// checkpoint (State.Stale).
func (e *jobEvent) live() bool {
	return e.kind == evRequeue ||
		e.kind == evComplete && e.job.State == StateRunning && e.job.Attempts == e.attempt
}

// timelineEvent is the handler of fault-timeline injection i. An injection
// is still ahead exactly while its handler is in the simulator's queue.
type timelineEvent struct {
	s *Service
	i int
}

// Fire injects the failure or repair.
func (e timelineEvent) Fire() {
	ev := e.s.timeline[e.i]
	if ev.Down {
		e.s.nodeDown(ev.Node)
	} else {
		e.s.nodeUp(ev.Node)
	}
}

// NodeState is the availability state of one worker node.
type NodeState int

const (
	// NodeIdle means up and waiting for work.
	NodeIdle NodeState = iota
	// NodeBusy means up and running a job.
	NodeBusy
	// NodeDown means failed and awaiting repair.
	NodeDown
)

// NodePool tracks per-node state instead of a bare busy counter, so node
// failures can target (and kill the job of) a specific node.
type NodePool struct {
	states []NodeState
	jobs   []*Job
	// idle mirrors states as a bitmap (bit i set iff node i is idle), so
	// Acquire's lowest-idle-index search is a word scan plus TrailingZeros
	// instead of a byte-per-node walk — the difference between O(n) and
	// O(n/64) per dispatch at Theta-scale node counts. The selection is
	// unchanged, only its cost.
	idle []uint64
	busy int
	down int
}

// NewNodePool creates a pool of n idle nodes.
func NewNodePool(n int) *NodePool {
	p := &NodePool{states: make([]NodeState, n), jobs: make([]*Job, n), idle: make([]uint64, (n+63)/64)}
	for i := 0; i < n; i++ {
		p.idle[i>>6] |= 1 << (uint(i) & 63)
	}
	return p
}

// rebuildIdle reconstitutes the idle bitmap from states — for restore
// paths that poke states directly.
func (p *NodePool) rebuildIdle() {
	for w := range p.idle {
		p.idle[w] = 0
	}
	for i, st := range p.states {
		if st == NodeIdle {
			p.idle[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// Len returns the pool size.
func (p *NodePool) Len() int { return len(p.states) }

// State returns node i's availability state.
func (p *NodePool) State(i int) NodeState { return p.states[i] }

// JobOn returns the job running on node i (nil when idle or down).
func (p *NodePool) JobOn(i int) *Job { return p.jobs[i] }

// Busy returns the number of nodes running jobs.
func (p *NodePool) Busy() int { return p.busy }

// Down returns the number of failed nodes.
func (p *NodePool) Down() int { return p.down }

// Acquire assigns job to the lowest-indexed idle node and returns its
// index, or -1 when every node is busy or down. Lowest-index-first keeps
// the schedule deterministic.
func (p *NodePool) Acquire(job *Job) int {
	if p.busy+p.down == len(p.states) {
		// Saturated machine: the launcher polls on every completion, so
		// this is the hot miss — answer it without touching the bitmap.
		return -1
	}
	for w, bits := range p.idle {
		if bits == 0 {
			continue
		}
		i := w<<6 + mathbits.TrailingZeros64(bits)
		p.idle[w] = bits &^ (1 << (uint(i) & 63))
		p.states[i] = NodeBusy
		p.jobs[i] = job
		p.busy++
		return i
	}
	return -1
}

// Release returns a busy node to idle.
func (p *NodePool) Release(i int) {
	if p.states[i] != NodeBusy {
		panic(fmt.Sprintf("balsam: release of non-busy node %d", i))
	}
	p.states[i] = NodeIdle
	p.idle[i>>6] |= 1 << (uint(i) & 63)
	p.jobs[i] = nil
	p.busy--
}

// SetDown marks a node failed; a busy node's job must be killed first.
func (p *NodePool) SetDown(i int) {
	switch p.states[i] {
	case NodeBusy:
		p.busy--
	case NodeDown:
		return
	}
	p.states[i] = NodeDown
	p.idle[i>>6] &^= 1 << (uint(i) & 63)
	p.jobs[i] = nil
	p.down++
}

// SetUp repairs a down node back to idle.
func (p *NodePool) SetUp(i int) {
	if p.states[i] != NodeDown {
		return
	}
	p.states[i] = NodeIdle
	p.idle[i>>6] |= 1 << (uint(i) & 63)
	p.down--
}

// Options configures the fault-tolerance behaviour of a Service.
type Options struct {
	// Faults injects node failures and stragglers; the zero value leaves
	// the machine perfect.
	Faults hpc.FaultModel
	// FaultHorizon bounds failure injection in virtual seconds (default
	// 6 h, the paper's wall-clock budget). Repairs for failures inside the
	// horizon always complete, even past it.
	FaultHorizon float64
	// MaxRetries is how many times a killed job is requeued before it goes
	// terminal FAILED (default 3; negative means no retries — the first
	// kill is terminal).
	MaxRetries int
	// BackoffBase is the first requeue delay in virtual seconds
	// (default 15); each further retry doubles it.
	BackoffBase float64
	// BackoffCap caps the exponential backoff (default 240).
	BackoffCap float64
	// NoUtilizationSeries disables retention of the per-transition
	// utilization series (UtilizationSeries then returns nil); the busy/down
	// integrals — and with them MeanUtilization — are unaffected. Million-
	// event runs (the simbench experiment, the allocation gate) set it: the
	// series grows by one point per job transition, which is both unbounded
	// memory and the one steady-state allocation left in the dispatch cycle.
	NoUtilizationSeries bool
}

func (o Options) withDefaults() Options {
	o.Faults = o.Faults.WithDefaults()
	if o.FaultHorizon <= 0 {
		o.FaultHorizon = 6 * 3600
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 15
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 240
	}
	return o
}

// Service is the in-memory job database plus launcher.
type Service struct {
	sim  *hpc.Sim
	pool *NodePool
	opts Options
	// queue[qhead:] is the launcher queue front-to-back; dispatch advances
	// qhead instead of reslicing so the backing array is reused once the
	// queue drains — append never reallocates in steady state.
	queue  []*Job
	qhead  int
	nextID int64

	// jobs holds the live (non-terminal) jobs; terminal jobs are evicted so
	// the table stays bounded over millions of submissions. The evaluator
	// only ever looks up in-flight jobs (Relink after a restore).
	jobs map[int64]*Job

	// freeEvents recycles jobEvent records (see jobEvent).
	freeEvents *jobEvent

	stragglerRand *rng.Rand

	// timeline is the generated (purely regenerable) fault timeline; event i
	// is scheduled as timelineEvent{s, i}.
	timeline []hpc.NodeEvent

	// Utilization accounting: integrals of busy and down node counts over
	// time plus a transition log for time series.
	lastChange   float64
	busy         int
	down         int
	busyIntegral float64
	downIntegral float64
	transitions  []UtilizationPoint

	finished     int
	failed       int
	retries      int
	nodeFailures int
}

// UtilizationPoint is one step of the piecewise-constant utilization curve:
// from Time onward, Busy nodes were occupied and Down nodes were dead
// (until the next point).
type UtilizationPoint struct {
	Time float64
	Busy int
	Down int
}

// NewService creates a service managing the given number of worker nodes on
// a perfect machine (no faults).
func NewService(sim *hpc.Sim, nodes int) *Service {
	return NewServiceWithOptions(sim, nodes, Options{})
}

// NewServiceWithOptions creates a service with fault-tolerance options.
// With the zero Options the service is indistinguishable from NewService.
func NewServiceWithOptions(sim *hpc.Sim, nodes int, opts Options) *Service {
	s := newService(sim, nodes, opts)
	s.lastChange = sim.Now()
	if !s.opts.NoUtilizationSeries {
		s.transitions = append(s.transitions, UtilizationPoint{Time: sim.Now()})
	}
	now := sim.Now()
	for i, ev := range s.timeline {
		delay := ev.Time - now
		if delay < 0 {
			delay = 0
		}
		s.sim.AtHandlerE(delay, timelineEvent{s, i})
	}
	return s
}

// newService builds the service skeleton shared by the fresh and restored
// constructors: node pool, options, straggler stream, and the regenerated
// (but not yet scheduled) fault timeline.
func newService(sim *hpc.Sim, nodes int, opts Options) *Service {
	if nodes <= 0 {
		panic("balsam: need at least one worker node")
	}
	opts = opts.withDefaults()
	s := &Service{sim: sim, pool: NewNodePool(nodes), opts: opts, jobs: map[int64]*Job{}}
	if opts.Faults.StragglerProb > 0 {
		s.stragglerRand = opts.Faults.StragglerStream()
	}
	s.timeline = opts.Faults.Timeline(nodes, opts.FaultHorizon)
	return s
}

// newJobEvent takes a record off the free list (or allocates one while the
// pool warms up) and binds it to a job, attempt, and kind.
func (s *Service) newJobEvent(job *Job, attempt, kind int) *jobEvent {
	e := s.freeEvents
	if e == nil {
		e = &jobEvent{s: s}
	} else {
		s.freeEvents = e.nextFree
	}
	e.job, e.attempt, e.kind = job, attempt, kind
	return e
}

// recycle returns a fired event record to the free list.
func (s *Service) recycle(e *jobEvent) {
	e.job = nil
	e.nextFree = s.freeEvents
	s.freeEvents = e
}

// QueueLen returns the number of jobs waiting for a node.
func (s *Service) QueueLen() int { return len(s.queue) - s.qhead }

// Finished returns the number of successfully completed jobs (JOB_FINISHED
// or RUN_TIMEOUT; FAILED jobs are counted by Failed).
func (s *Service) Finished() int { return s.finished }

// Failed returns the number of jobs that went terminal FAILED.
func (s *Service) Failed() int { return s.failed }

// Retries returns the number of kill-and-requeue cycles performed.
func (s *Service) Retries() int { return s.retries }

// NodeFailures returns the number of node-down events executed so far.
func (s *Service) NodeFailures() int { return s.nodeFailures }

// Submit adds a job to the database and triggers the launcher. It returns
// the assigned job ID.
func (s *Service) Submit(job *Job) int64 {
	if job.Duration < 0 {
		panic(fmt.Sprintf("balsam: negative duration %g", job.Duration))
	}
	s.nextID++
	job.ID = s.nextID
	job.State = StateCreated
	job.Node = -1
	job.SubmitTime = s.sim.Now()
	s.jobs[job.ID] = job
	s.queue = append(s.queue, job)
	rec := s.sim.Recorder()
	rec.Emit(trace.Event{Cat: trace.CatBalsam, Name: trace.EvJobSubmit,
		Node: trace.None, Agent: job.AgentID, Job: job.ID, Detail: job.Key})
	rec.Emit(trace.Event{Kind: trace.KindCounter, Cat: trace.CatBalsam, Name: trace.EvQueueDepth,
		Node: trace.None, Agent: trace.None, Value: float64(s.QueueLen())})
	s.dispatch()
	return job.ID
}

// dispatch starts queued jobs while nodes are idle (the pilot-job launcher
// loop).
func (s *Service) dispatch() {
	for len(s.queue) > s.qhead {
		job := s.queue[s.qhead]
		node := s.pool.Acquire(job)
		if node < 0 {
			return
		}
		s.queue[s.qhead] = nil
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue = s.queue[:0]
			s.qhead = 0
		} else if s.qhead >= 64 && 2*s.qhead >= len(s.queue) {
			// With a standing backlog the queue never drains, so the head
			// index alone would let the backing array grow without bound.
			// Compact in place once the dead prefix dominates: amortized
			// O(1) per dispatch, no allocation, order untouched.
			n := copy(s.queue, s.queue[s.qhead:])
			tail := s.queue[n:]
			for i := range tail {
				tail[i] = nil
			}
			s.queue = s.queue[:n]
			s.qhead = 0
		}
		job.State = StateRunning
		job.Node = node
		job.Attempts++
		job.StartTime = s.sim.Now()
		rec := s.sim.Recorder()
		rec.Emit(trace.Event{Cat: trace.CatBalsam, Name: trace.EvJobRun,
			Node: node, Agent: job.AgentID, Job: job.ID, Value: float64(job.Attempts)})
		rec.Emit(trace.Event{Kind: trace.KindCounter, Cat: trace.CatBalsam, Name: trace.EvQueueDepth,
			Node: trace.None, Agent: trace.None, Value: float64(s.QueueLen())})
		s.updateCounts()
		d := job.Duration
		if s.stragglerRand != nil {
			d *= s.opts.Faults.Straggler(s.stragglerRand)
		}
		s.sim.AtHandlerE(d, s.newJobEvent(job, job.Attempts, evComplete))
	}
}

// complete finishes a run, unless the run was killed by a node failure
// first (then the completion event is stale and ignored). The fired event
// record is recycled either way, and a terminal job is evicted from the job
// table — it has already reported through OnDone, and the table must stay
// bounded over millions of submissions.
func (s *Service) complete(e *jobEvent) {
	job := e.job
	live := e.live()
	s.recycle(e)
	if !live {
		return
	}
	if job.TimedOut {
		job.State = StateTimeout
	} else {
		job.State = StateFinished
	}
	job.EndTime = s.sim.Now()
	delete(s.jobs, job.ID)
	s.finished++
	name := trace.EvJobDone
	if job.TimedOut {
		name = trace.EvJobTimeout
	}
	s.sim.Recorder().Emit(trace.Event{Kind: trace.KindSpan, Cat: trace.CatBalsam, Name: name,
		Dur: job.EndTime - job.StartTime, Node: job.Node, Agent: job.AgentID,
		Job: job.ID, Value: float64(job.Attempts)})
	s.pool.Release(job.Node)
	job.Node = -1
	s.updateCounts()
	if job.OnDone != nil {
		job.OnDone(job)
	}
	s.dispatch()
}

// FailNode injects a scripted node failure (same path as the FaultModel
// timeline): the node goes down and its running job, if any, is killed and
// retried or failed. No-op when the node is already down.
func (s *Service) FailNode(node int) { s.nodeDown(node) }

// RepairNode injects a scripted repair, returning a down node to service.
// No-op when the node is up.
func (s *Service) RepairNode(node int) { s.nodeUp(node) }

// nodeDown fails a node, killing (and retrying or failing) its job.
func (s *Service) nodeDown(node int) {
	if s.pool.State(node) == NodeDown {
		return
	}
	s.nodeFailures++
	s.sim.Recorder().Emit(trace.Event{Cat: trace.CatFault, Name: trace.EvNodeDown,
		Node: node, Agent: trace.None, Value: float64(s.nodeFailures)})
	job := s.pool.JobOn(node)
	s.pool.SetDown(node)
	if job != nil {
		s.kill(job)
	}
	s.updateCounts()
}

// kill transitions a running job to RUN_ERROR and either schedules its
// requeue (capped exponential backoff in virtual time) or fails it
// terminally once its retries are exhausted.
func (s *Service) kill(job *Job) {
	node := job.Node
	job.State = StateRunError
	job.Node = -1
	if job.Attempts > s.opts.MaxRetries {
		job.State = StateFailed
		job.EndTime = s.sim.Now()
		delete(s.jobs, job.ID)
		s.failed++
		s.sim.Recorder().Emit(trace.Event{Cat: trace.CatBalsam, Name: trace.EvJobFailed,
			Node: node, Agent: job.AgentID, Job: job.ID, Value: float64(job.Attempts)})
		if job.OnDone != nil {
			job.OnDone(job)
		}
		return
	}
	s.retries++
	backoff := s.opts.BackoffBase * math.Pow(2, float64(job.Attempts-1))
	if backoff > s.opts.BackoffCap {
		backoff = s.opts.BackoffCap
	}
	s.sim.Recorder().Emit(trace.Event{Cat: trace.CatBalsam, Name: trace.EvJobError,
		Node: node, Agent: job.AgentID, Job: job.ID, Value: backoff})
	s.sim.AtHandlerE(backoff, s.newJobEvent(job, job.Attempts, evRequeue))
}

// requeue puts a killed job back on the launcher queue after its backoff.
func (s *Service) requeue(e *jobEvent) {
	job := e.job
	job.State = StateRestartReady
	s.recycle(e)
	s.queue = append(s.queue, job)
	rec := s.sim.Recorder()
	rec.Emit(trace.Event{Cat: trace.CatBalsam, Name: trace.EvJobRestart,
		Node: trace.None, Agent: job.AgentID, Job: job.ID, Value: float64(job.Attempts)})
	rec.Emit(trace.Event{Kind: trace.KindCounter, Cat: trace.CatBalsam, Name: trace.EvQueueDepth,
		Node: trace.None, Agent: trace.None, Value: float64(s.QueueLen())})
	s.dispatch()
}

// nodeUp repairs a node and resumes dispatching.
func (s *Service) nodeUp(node int) {
	if s.pool.State(node) != NodeDown {
		return
	}
	s.sim.Recorder().Emit(trace.Event{Cat: trace.CatFault, Name: trace.EvNodeUp,
		Node: node, Agent: trace.None})
	s.pool.SetUp(node)
	s.updateCounts()
	s.dispatch()
}

// updateCounts integrates the busy/down node counts up to now and records a
// transition point.
func (s *Service) updateCounts() {
	now := s.sim.Now()
	s.busyIntegral += float64(s.busy) * (now - s.lastChange)
	s.downIntegral += float64(s.down) * (now - s.lastChange)
	s.lastChange = now
	s.busy = s.pool.Busy()
	s.down = s.pool.Down()
	if !s.opts.NoUtilizationSeries {
		s.transitions = append(s.transitions, UtilizationPoint{Time: now, Busy: s.busy, Down: s.down})
	}
	rec := s.sim.Recorder()
	rec.Emit(trace.Event{Kind: trace.KindCounter, Cat: trace.CatBalsam, Name: trace.EvBusyNodes,
		Node: trace.None, Agent: trace.None, Value: float64(s.busy)})
	rec.Emit(trace.Event{Kind: trace.KindCounter, Cat: trace.CatBalsam, Name: trace.EvDownNodes,
		Node: trace.None, Agent: trace.None, Value: float64(s.down)})
}

// BusySeconds returns the integral of busy node count over time.
func (s *Service) BusySeconds() float64 {
	return s.busyIntegral + float64(s.busy)*(s.sim.Now()-s.lastChange)
}

// DeadSeconds returns the integral of failed node count over time.
func (s *Service) DeadSeconds() float64 {
	return s.downIntegral + float64(s.down)*(s.sim.Now()-s.lastChange)
}

// IdleSeconds returns the integral of idle (up, unoccupied) node count.
func (s *Service) IdleSeconds() float64 {
	return float64(s.pool.Len())*s.sim.Now() - s.BusySeconds() - s.DeadSeconds()
}

// MeanUtilization returns the time-averaged busy fraction of *available*
// capacity from t=0 to now: busy node-seconds over total node-seconds minus
// dead node-seconds. On a fault-free machine this is the plain busy
// fraction.
func (s *Service) MeanUtilization() float64 {
	now := s.sim.Now()
	if now == 0 {
		return 0
	}
	avail := float64(s.pool.Len())*now - s.DeadSeconds()
	if avail <= 0 {
		return 0
	}
	return s.BusySeconds() / avail
}

// UtilizationSeries samples the piecewise-constant utilization curve into
// buckets of the given width (seconds), averaging busy capacity over
// available (non-dead) capacity within each bucket — the series plotted in
// the paper's Figures 5, 6, and 9. The final partial bucket is included;
// when now falls exactly on a bucket boundary no zero-width bucket is
// emitted. A bucket whose capacity was entirely dead reads 0.
func (s *Service) UtilizationSeries(bucket float64) []float64 {
	if s.opts.NoUtilizationSeries {
		return nil
	}
	now := s.sim.Now()
	points := append(append([]UtilizationPoint(nil), s.transitions...),
		UtilizationPoint{Time: now, Busy: s.busy, Down: s.down})
	return SeriesFromPoints(points, s.pool.Len(), bucket, now)
}

// SeriesFromPoints samples a piecewise-constant utilization curve — given
// as transition points followed by a final point at time now — into
// buckets, exactly as UtilizationSeries does for a live service. It exists
// so a recorded trace (internal/analytics) can rebuild the same series
// from its nodes.busy/nodes.down counter events.
func SeriesFromPoints(points []UtilizationPoint, nodes int, bucket, now float64) []float64 {
	if bucket <= 0 {
		panic("balsam: bucket must be positive")
	}
	if now == 0 {
		return nil
	}
	nBuckets := int(now / bucket)
	if float64(nBuckets)*bucket < now {
		nBuckets++
	}
	busySec := make([]float64, nBuckets)
	downSec := make([]float64, nBuckets)
	// Integrate the step functions per bucket.
	for i := 0; i+1 < len(points); i++ {
		t0, t1 := points[i].Time, points[i+1].Time
		busy := float64(points[i].Busy)
		down := float64(points[i].Down)
		for t0 < t1 {
			b := int(t0 / bucket)
			end := float64(b+1) * bucket
			if end > t1 {
				end = t1
			}
			if b < nBuckets {
				busySec[b] += busy * (end - t0)
				downSec[b] += down * (end - t0)
			}
			t0 = end
		}
	}
	series := make([]float64, nBuckets)
	for b := range series {
		width := bucket
		if float64(b+1)*bucket > now {
			width = now - float64(b)*bucket
		}
		avail := width*float64(nodes) - downSec[b]
		if avail > 0 {
			series[b] = busySec[b] / avail
		}
	}
	return series
}

// Job returns the job with the given ID, or nil if unknown. Restored
// services only know live (non-terminal) jobs.
func (s *Service) Job(id int64) *Job { return s.jobs[id] }

// JobRecord is one live job in a checkpoint. Payload and OnDone are not
// serialized; the evaluator re-links them after restore via Relink.
type JobRecord struct {
	ID       int64
	AgentID  int
	Key      string
	Duration float64
	TimedOut bool
	State    JobState
	Attempts int
	Node     int

	SubmitTime, StartTime float64

	// HasFire says whether the job has a pending simulator event (the
	// completion event while RUNNING, the requeue event while RUN_ERROR),
	// and FireTime/FireSeq where it sits in the original event queue.
	HasFire  bool
	FireTime float64
	FireSeq  int64
}

// StaleEvent is an orphaned completion event of a killed job: a no-op that
// still advances the virtual clock when it fires.
type StaleEvent struct {
	Time float64
	Seq  int64
}

// TimelineEvent is one not-yet-fired fault-timeline injection, identified by
// its index into the (purely regenerable) timeline.
type TimelineEvent struct {
	Index int
	Time  float64
	Seq   int64
}

// State is the complete serializable state of a Service at a checkpoint
// cut: live jobs (terminal JOB_FINISHED/RUN_TIMEOUT/FAILED jobs have already
// reported through OnDone and are dropped), the launcher queue order, node
// availability, the straggler stream position, utilization accounting, and
// every pending simulator event the service owns.
type State struct {
	NextID int64
	// Queue lists the launcher queue front-to-back by job ID.
	Queue []int64
	// Jobs holds the live jobs, sorted by ID for reproducible encoding.
	Jobs []JobRecord
	// DownNodes lists the node indices currently failed.
	DownNodes []int
	// StragglerRand is nil when stragglers are disabled.
	StragglerRand *rng.State

	LastChange   float64
	Busy, Down   int
	BusyIntegral float64
	DownIntegral float64
	Transitions  []UtilizationPoint

	Finished, Failed, Retries, NodeFailures int

	Stale           []StaleEvent
	PendingTimeline []TimelineEvent
}

// CaptureState snapshots the service. All slices are deep-copied. Where the
// service's pending events sit is read from the simulator's queue, the only
// record of it: live job events by job, orphaned completions and the
// injections still ahead in (time, seq) order.
func (s *Service) CaptureState() *State {
	st := &State{
		NextID:       s.nextID,
		LastChange:   s.lastChange,
		Busy:         s.busy,
		Down:         s.down,
		BusyIntegral: s.busyIntegral,
		DownIntegral: s.downIntegral,
		Transitions:  append([]UtilizationPoint(nil), s.transitions...),
		Finished:     s.finished,
		Failed:       s.failed,
		Retries:      s.retries,
		NodeFailures: s.nodeFailures,
	}
	for _, job := range s.queue[s.qhead:] {
		st.Queue = append(st.Queue, job.ID)
	}
	fire := map[*Job]hpc.Event{}
	for _, ev := range s.sim.Pending() {
		switch h := ev.Handler.(type) {
		case *jobEvent:
			if h.live() {
				fire[h.job] = ev
			} else {
				st.Stale = append(st.Stale, StaleEvent{Time: ev.Time, Seq: ev.Seq})
			}
		case timelineEvent:
			st.PendingTimeline = append(st.PendingTimeline, TimelineEvent{Index: h.i, Time: ev.Time, Seq: ev.Seq})
		}
	}
	for _, job := range s.jobs {
		switch job.State {
		case StateFinished, StateTimeout, StateFailed:
			continue
		}
		rec := JobRecord{
			ID: job.ID, AgentID: job.AgentID, Key: job.Key,
			Duration: job.Duration, TimedOut: job.TimedOut,
			State: job.State, Attempts: job.Attempts, Node: job.Node,
			SubmitTime: job.SubmitTime, StartTime: job.StartTime,
		}
		if ev, ok := fire[job]; ok {
			rec.HasFire, rec.FireTime, rec.FireSeq = true, ev.Time, ev.Seq
		}
		st.Jobs = append(st.Jobs, rec)
	}
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].ID < st.Jobs[j].ID })
	for i := 0; i < s.pool.Len(); i++ {
		if s.pool.State(i) == NodeDown {
			st.DownNodes = append(st.DownNodes, i)
		}
	}
	if s.stragglerRand != nil {
		r := s.stragglerRand.State()
		st.StragglerRand = &r
	}
	return st
}

// RestoreService rebuilds a service from a captured state on a simulator
// positioned at the checkpoint's virtual time. It returns the service plus
// every pending simulator event the service owned (job completions, requeue
// backoffs, stale completions, fault injections), not yet enqueued; the
// caller merges them with other components' frontiers and hands them to
// hpc.Sim.Resume. Payload/OnDone of restored jobs are nil until the
// evaluator re-links them.
func RestoreService(sim *hpc.Sim, nodes int, opts Options, st *State) (*Service, []hpc.Event) {
	s := newService(sim, nodes, opts)
	s.nextID = st.NextID
	s.lastChange = st.LastChange
	s.busy = st.Busy
	s.down = st.Down
	s.busyIntegral = st.BusyIntegral
	s.downIntegral = st.DownIntegral
	s.transitions = append([]UtilizationPoint(nil), st.Transitions...)
	s.finished = st.Finished
	s.failed = st.Failed
	s.retries = st.Retries
	s.nodeFailures = st.NodeFailures
	if st.StragglerRand != nil {
		s.stragglerRand = rng.FromState(*st.StragglerRand)
	}

	for _, n := range st.DownNodes {
		s.pool.states[n] = NodeDown
		s.pool.down++
	}
	defer s.pool.rebuildIdle() // the job loop below pokes states directly too

	var events []hpc.Event
	for _, rec := range st.Jobs {
		job := &Job{
			ID: rec.ID, AgentID: rec.AgentID, Key: rec.Key,
			Duration: rec.Duration, TimedOut: rec.TimedOut,
			State: rec.State, Attempts: rec.Attempts, Node: rec.Node,
			SubmitTime: rec.SubmitTime, StartTime: rec.StartTime,
		}
		s.jobs[job.ID] = job
		switch job.State {
		case StateRunning:
			s.pool.states[job.Node] = NodeBusy
			s.pool.jobs[job.Node] = job
			s.pool.busy++
			if !rec.HasFire {
				panic(fmt.Sprintf("balsam: restored RUNNING job %d has no completion event", job.ID))
			}
			events = append(events, hpc.Event{Time: rec.FireTime, Seq: rec.FireSeq,
				Handler: s.newJobEvent(job, job.Attempts, evComplete)})
		case StateRunError:
			if !rec.HasFire {
				panic(fmt.Sprintf("balsam: restored RUN_ERROR job %d has no requeue event", job.ID))
			}
			events = append(events, hpc.Event{Time: rec.FireTime, Seq: rec.FireSeq,
				Handler: s.newJobEvent(job, job.Attempts, evRequeue)})
		}
	}
	for _, id := range st.Queue {
		job := s.jobs[id]
		if job == nil {
			panic(fmt.Sprintf("balsam: queued job %d missing from checkpoint", id))
		}
		s.queue = append(s.queue, job)
	}
	for _, e := range st.Stale {
		events = append(events, hpc.Event{Time: e.Time, Seq: e.Seq, Handler: s.newJobEvent(nil, 0, evStale)})
	}
	for _, te := range st.PendingTimeline {
		events = append(events, hpc.Event{Time: te.Time, Seq: te.Seq, Handler: timelineEvent{s, te.Index}})
	}
	return s, events
}
