// Package search implements the paper's scalable NAS search strategies
// (§3.2): multi-agent A3C (asynchronous advantage actor-critic with PPO),
// A2C (its synchronous variant), and RDM (random search over the same
// space, submitted with the same per-agent batch discipline).
//
// Every strategy runs N agents, each evaluating M architectures per round
// ("workers per agent") through the Balsam-backed evaluator on a shared
// pool of N×M simulated worker nodes. A3C/A2C agents then perform the PPO
// update: Config.RL.Epochs gradient computations, each exchanged through
// the parameter server (synchronously for A2C — the barrier that produces
// the sawtooth utilization of Fig. 5 — or against a recent-gradient window
// for A3C).
//
// A search ends at the virtual-time horizon, or earlier when it converges
// the way the paper describes (§5.1): every agent keeps generating
// architectures its own cache has already evaluated, so the search "could
// not proceed in a meaningful way".
package search

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/hpc"
	"nasgo/internal/ps"
	"nasgo/internal/rl"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// Strategy names.
const (
	A3C = "a3c"
	A2C = "a2c"
	RDM = "rdm"
)

// Config parameterizes one search run.
type Config struct {
	Strategy string
	// Agents is N, the number of RL agents (paper: 21 at 256 nodes).
	Agents int
	// WorkersPerAgent is M, the architectures each agent evaluates per
	// round (paper: 11 at 256 nodes).
	WorkersPerAgent int
	// Horizon is the virtual wall-clock budget in seconds (paper: 6 h).
	Horizon float64
	// Walltime bounds one scheduler allocation in virtual seconds; 0
	// disables walltime bounding. A search whose horizon exceeds the
	// walltime runs as a chain of allocations: each allocation stops at its
	// walltime boundary, checkpoints the complete search state, and the next
	// allocation resumes from the checkpoint. The chained run's log is
	// bit-identical to an uninterrupted run of the same config.
	Walltime float64
	Seed     uint64
	// RL configures the controller (defaults are the paper's).
	RL rl.Config
	// Eval configures reward estimation (fidelity, timeout, epochs) and the
	// host-side concurrent-training pool (Eval.Workers). The pool is pure
	// wall-clock speedup: logs, traces, and checkpoints are byte-identical
	// at every Workers setting.
	Eval evaluator.Config
	// PSWindow is the A3C recent-gradient window (default 4).
	PSWindow int
	// PSLatency is the virtual seconds of one gradient exchange.
	PSLatency float64
	// UpdateCost is the virtual seconds an agent spends per PPO epoch.
	UpdateCost float64
	// ConvergeRounds is how many consecutive fully cached rounds every
	// agent must produce before the search stops (default 2); 0 keeps the
	// default, negative disables convergence stopping.
	ConvergeRounds int
	// EvoPopulation is the per-agent population size of the EVO strategy
	// (default 32).
	EvoPopulation int
	// Faults injects node failures and stragglers into the worker pool.
	// The zero value (default) is a perfect machine and reproduces
	// fault-free runs bit-for-bit. When Faults is enabled with Seed 0, the
	// fault seed is derived from Config.Seed so replays stay deterministic.
	Faults hpc.FaultModel
	// MaxRetries caps kill-and-requeue cycles per job before terminal
	// failure (0 means the Balsam default of 3, negative disables retries).
	MaxRetries int
}

func (c Config) withDefaults() Config {
	if c.Strategy == "" {
		c.Strategy = A3C
	}
	if c.Agents == 0 {
		c.Agents = 21
	}
	if c.WorkersPerAgent == 0 {
		c.WorkersPerAgent = 11
	}
	if c.Horizon == 0 {
		c.Horizon = 6 * 3600
	}
	if c.PSWindow == 0 {
		c.PSWindow = 4
	}
	if c.PSLatency == 0 {
		c.PSLatency = 0.5
	}
	if c.UpdateCost == 0 {
		c.UpdateCost = 1
	}
	if c.ConvergeRounds == 0 {
		c.ConvergeRounds = 2
	}
	if c.EvoPopulation == 0 {
		c.EvoPopulation = 32
	}
	return c
}

// maxNodes bounds the simulated machine, Agents × WorkersPerAgent nodes, a
// config may ask for: the largest machine simbench drives, 3.7× Theta's
// 4,392 nodes. A larger one would be built in memory before the search
// starts, where nothing can catch running out of it.
const maxNodes = 1 << 14

// Validate rejects configurations that cannot run, with errors that say
// which field is wrong and what would be accepted. Zero values are legal
// wherever they select a documented default.
func (c Config) Validate() error {
	switch c.Strategy {
	case "", A3C, A2C, RDM, EVO:
	default:
		return fmt.Errorf("search: unknown strategy %q (want %q, %q, %q, or %q)",
			c.Strategy, A3C, A2C, RDM, EVO)
	}
	if c.Agents < 0 {
		return fmt.Errorf("search: Agents = %d, want > 0 agents (0 selects the default 21)", c.Agents)
	}
	if c.WorkersPerAgent < 0 {
		return fmt.Errorf("search: WorkersPerAgent = %d, want > 0 evaluations per agent round (0 selects the default 11)", c.WorkersPerAgent)
	}
	// Overflow-safe form of Agents*WorkersPerAgent > maxNodes.
	if d := c.withDefaults(); d.Agents > maxNodes || d.WorkersPerAgent > maxNodes/d.Agents {
		return fmt.Errorf("search: Agents × WorkersPerAgent = %d × %d nodes, want at most %d", d.Agents, d.WorkersPerAgent, maxNodes)
	}
	if c.Horizon < 0 || math.IsNaN(c.Horizon) {
		return fmt.Errorf("search: Horizon = %g, want > 0 virtual seconds (0 selects the default 6 h)", c.Horizon)
	}
	if c.Walltime < 0 || math.IsNaN(c.Walltime) {
		return fmt.Errorf("search: Walltime = %g, want > 0 virtual seconds per allocation (0 disables walltime bounding)", c.Walltime)
	}
	if c.Eval.Fidelity < 0 || c.Eval.Fidelity > 1 || math.IsNaN(c.Eval.Fidelity) {
		return fmt.Errorf("search: Eval.Fidelity = %g, want a training-data fraction in (0, 1] (0 selects the benchmark default)", c.Eval.Fidelity)
	}
	if c.Eval.Workers < 0 {
		return fmt.Errorf("search: Eval.Workers = %d, want >= 0 concurrent trainings (0 selects GOMAXPROCS, 1 trains serially)", c.Eval.Workers)
	}
	return nil
}

// Log is the analytics-facing record of one search run.
type Log struct {
	Bench     string
	SpaceName string
	Config    Config

	// Results holds every reward estimation in completion order.
	Results []*evaluator.Result
	// Utilization is the worker-pool busy fraction per UtilBucket seconds.
	Utilization []float64
	UtilBucket  float64

	// EndTime is the virtual time the search stopped.
	EndTime float64
	// Converged reports an early stop from all-cached rounds.
	Converged bool
	// PS reports parameter-server statistics (zero for RDM).
	PS ps.Stats
	// CacheHits counts cache-served evaluations.
	CacheHits int
	// Evaluations counts real (non-cached) evaluations.
	Evaluations int

	// NodeFailures counts injected node-down events during the run.
	NodeFailures int
	// Retries counts kill-and-requeue cycles of jobs whose node died.
	Retries int
	// FailedEvals counts estimations that ended terminally failed (compile
	// errors or jobs exceeding MaxRetries).
	FailedEvals int
	// PartialRounds counts agent rounds that proceeded to the policy
	// update with a partial batch because one or more of the round's
	// evaluations failed.
	PartialRounds int
}

// UniqueArchitectures returns the number of distinct architectures among
// the results — the analytics module's diversity measure.
func (l *Log) UniqueArchitectures() int {
	seen := map[string]bool{}
	for _, r := range l.Results {
		seen[r.Key] = true
	}
	return len(seen)
}

// TopK returns the k best architectures by reward (ties broken by earlier
// finish, then by key: a total order), the paper's input to post-training
// selection. Each is represented by the first result carrying its best
// reward, which can be a cache hit (Cached, Duration 0): an architecture
// proposed twice in one round hits its own in-flight entry and completes
// before the task does. Failed estimations carry no model and are skipped.
func (l *Log) TopK(k int) []*evaluator.Result {
	best := map[string]*evaluator.Result{}
	for _, r := range l.Results {
		if r.Failed {
			continue
		}
		if prev, ok := best[r.Key]; !ok || r.Reward > prev.Reward {
			best[r.Key] = r
		}
	}
	all := make([]*evaluator.Result, 0, len(best))
	for _, r := range best {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool { return better(all[i], all[j]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Best is TopK(1)[0] (nil when every result failed) in one pass, with no
// allocation: the first non-failed result of the least (−Reward,
// FinishTime, Key). Results are in completion order, so that is the first
// best-reward result of its key, as in TopK.
func (l *Log) Best() *evaluator.Result {
	var best *evaluator.Result
	for _, r := range l.Results {
		if !r.Failed && (best == nil || better(r, best)) {
			best = r
		}
	}
	return best
}

// better is TopK's order: higher reward, then earlier finish, then key.
func better(a, b *evaluator.Result) bool {
	if a.Reward != b.Reward {
		return a.Reward > b.Reward
	}
	if a.FinishTime != b.FinishTime {
		return a.FinishTime < b.FinishTime
	}
	return a.Key < b.Key
}

// runner orchestrates one search run on its own simulator.
type runner struct {
	cfg     Config
	bench   *candle.Benchmark
	sim     *hpc.Sim
	service *balsam.Service
	eval    *evaluator.Evaluator
	psrv    *ps.Server
	space   *space.Space
	agents  []*agent
	endTime float64
	// consecutive counts, per agent, of fully cached rounds.
	cachedRounds []int
	converged    bool
	// partialRounds counts rounds completed with a partial batch after
	// evaluation failures.
	partialRounds int

	// boundary is the current allocation's walltime cut in virtual seconds
	// (+Inf when Walltime is disabled: never cut), and allocations counts
	// completed walltime allocations before this one.
	boundary    float64
	allocations int
}

// Agent phases: where an agent's state machine sits between simulator
// events, so a checkpoint knows which pending work belongs to it.
const (
	// phaseIdle: before the first round, or done (horizon/convergence).
	phaseIdle = iota
	// phaseEval: waiting for the round's reward estimations.
	phaseEval
	// phaseExchange: gradient handed to the parameter server, waiting for
	// the averaged gradient (barrier or in-flight delivery — both owned by
	// the server's state).
	phaseExchange
	// phaseUpdate: averaged gradient received, UpdateCost event pending.
	phaseUpdate
	// phaseRoundWait: RDM/EVO resubmission latency event pending.
	phaseRoundWait
)

// phaseName names a phase for the trace (Detail of CatSearch phase events).
func phaseName(p int) string {
	switch p {
	case phaseIdle:
		return "idle"
	case phaseEval:
		return "eval"
	case phaseExchange:
		return "exchange"
	case phaseUpdate:
		return "update"
	case phaseRoundWait:
		return "roundwait"
	}
	return fmt.Sprintf("phase%d", p)
}

// agent is one searcher's state machine: an RL controller (A3C/A2C), an
// evolution population (EVO), or neither (RDM).
type agent struct {
	id   int
	r    *runner
	ctrl *rl.Controller // A3C/A2C only
	evo  *evoState      // EVO only
	rand *rng.Rand
	eps  []*rl.Episode
	// failedEp marks episodes whose evaluation ended terminally failed;
	// they are dropped from the policy update (partial batch).
	failedEp []bool
	pending  int
	cached   int

	// Checkpointable control state.
	phase    int
	curEpoch int
	// pendingJobs maps episode index → in-flight Balsam job ID (0 once the
	// result has been delivered, or when no task was launched).
	pendingJobs []int64
	// pendingAvg holds the averaged gradient awaiting its UpdateCost event.
	pendingAvg []float64
}

// Fire makes the agent the handler of its one timer — the UpdateCost delay
// (phaseUpdate) or the round wait (phaseRoundWait) — so scheduling it
// allocates nothing and a checkpoint finds it in the simulator's queue.
func (a *agent) Fire() {
	switch a.phase {
	case phaseUpdate:
		a.applyUpdate()
	case phaseRoundWait:
		a.startRound()
	default:
		panic(fmt.Sprintf("search: agent %d timer fired in phase %s", a.id, phaseName(a.phase)))
	}
}

// Run executes one search and returns its log. The run is deterministic in
// (benchmark, space, config): with Walltime set, the run chains
// checkpointed allocations and still produces the identical log.
func Run(bench *candle.Benchmark, sp *space.Space, cfg Config) *Log {
	log, err := run(bench, sp, cfg, nil, nil)
	if err != nil {
		panic(err)
	}
	return log
}

// RunTraced is Run with a trace recorder attached to the machine for the
// whole run (including across walltime-chained allocations, whose ckpt
// cut/resume marks appear in the trace). rec may be nil, in which case the
// run is bit-identical to Run — the recorder never influences the
// simulation. The recorder is deliberately not part of Config: Config is
// gob-encoded into checkpoints, and a recorder is a live in-process object.
func RunTraced(bench *candle.Benchmark, sp *space.Space, cfg Config, rec *trace.Recorder) (*Log, error) {
	return run(bench, sp, cfg, rec, nil)
}

// RunReplay runs a search whose reward estimations are served from a
// precomputed table (a nasbench artifact) instead of real training — the
// instant-replay backend for strategy tournaments. The search machinery is
// untouched: virtual tasks, caches, and every RNG stream behave exactly as
// live, so a replayed run's Log is byte-identical to a live run of the
// same config (cfg.Eval.BenchSeed must match the table's build seed, and
// sp must be the tabulated sub-space). src must not be nil.
func RunReplay(bench *candle.Benchmark, sp *space.Space, cfg Config, src evaluator.RewardSource) (*Log, error) {
	return RunReplayTraced(bench, sp, cfg, nil, src)
}

// RunReplayTraced is RunReplay with a trace recorder attached.
func RunReplayTraced(bench *candle.Benchmark, sp *space.Space, cfg Config, rec *trace.Recorder, src evaluator.RewardSource) (*Log, error) {
	if src == nil {
		return nil, fmt.Errorf("search: RunReplay needs a reward source (use Run for live training)")
	}
	return run(bench, sp, cfg, rec, src)
}

// run is the one search loop: a chain of allocations through in-memory
// checkpoints. A plain run (Walltime == 0) is the chain of length one — an
// allocation whose boundary is +Inf is never cut.
func run(bench *candle.Benchmark, sp *space.Space, cfg Config, rec *trace.Recorder, src evaluator.RewardSource) (*Log, error) {
	log, ck, err := allocate(bench, sp, cfg, nil, rec, src)
	for err == nil && ck != nil {
		log, ck, err = allocate(bench, sp, cfg, ck, rec, src)
	}
	return log, err
}

// allocate runs one allocation of a search — from scratch with cfg
// (ck == nil) or continuing ck under ck.Config — to its walltime boundary,
// and returns the final log, or the partial log and the checkpoint at the
// cut. It is the single construction site of the machine: service,
// evaluator, parameter server and agents are built from the same derived
// settings in the same order either way, so the construction-time RNG draws
// of a fresh machine are exactly the ones a restored machine replays before
// its state is overwritten. rec and src are live in-process objects and
// deliberately not part of Config (which is gob-encoded into checkpoints):
// the caller re-attaches them to every allocation.
func allocate(bench *candle.Benchmark, sp *space.Space, cfg Config, ck *Checkpoint, rec *trace.Recorder, src evaluator.RewardSource) (*Log, *Checkpoint, error) {
	if ck != nil {
		cfg = ck.Config
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Faults.Enabled() && cfg.Faults.Seed == 0 {
		cfg.Faults.Seed = cfg.Seed ^ 0xfa117
	}
	nodes := cfg.Agents * cfg.WorkersPerAgent
	opts := balsam.Options{
		Faults:       cfg.Faults,
		FaultHorizon: cfg.Horizon,
		MaxRetries:   cfg.MaxRetries,
	}
	evalCfg := cfg.Eval
	evalCfg.Seed = cfg.Seed ^ 0x5eed

	r := &runner{
		cfg:          cfg,
		bench:        bench,
		space:        sp,
		cachedRounds: make([]int, cfg.Agents),
		boundary:     math.Inf(1),
	}
	var events []hpc.Event // the checkpoint's pending-event frontier
	if ck == nil {
		r.sim = hpc.NewSim()
		r.sim.SetRecorder(rec)
		r.service = balsam.NewServiceWithOptions(r.sim, nodes, opts)
		r.eval = evaluator.New(r.sim, r.service, bench, sp, evalCfg)
	} else {
		if bench.Name != ck.Bench {
			return nil, nil, fmt.Errorf("search: checkpoint is for benchmark %q, resume got %q", ck.Bench, bench.Name)
		}
		if sp.Name != ck.SpaceName {
			return nil, nil, fmt.Errorf("search: checkpoint is for space %q, resume got %q", ck.SpaceName, sp.Name)
		}
		r.sim = hpc.NewSimAt(ck.Now)
		r.sim.SetRecorder(rec)
		rec.Emit(trace.Event{Cat: trace.CatCkpt, Name: trace.EvResume,
			Node: trace.None, Agent: trace.None, Value: float64(ck.Allocations)})
		r.service, events = balsam.RestoreService(r.sim, nodes, opts, ck.Service)
		r.eval = evaluator.Restore(r.sim, r.service, bench, sp, evalCfg, ck.Eval)
	}
	if src != nil {
		r.eval.SetRewardSource(src)
	}
	if cfg.Walltime > 0 {
		r.boundary = cfg.Walltime
		if ck != nil {
			r.boundary += ck.Boundary
		}
	}
	r.buildAgents(rng.New(cfg.Seed))

	if ck == nil {
		if r.usesPS() {
			r.psrv = ps.NewServer(r.sim, r.psConfig())
		}
		for _, a := range r.agents {
			r.sim.At(0, a.startRound)
		}
	} else if err := r.restore(ck, events); err != nil {
		return nil, nil, err
	}

	// Process every event up to the boundary: the cut, if any, falls between
	// events, and a drained queue ends at the same virtual time whether or
	// not a boundary was set.
	if r.sim.RunUntil(r.boundary) {
		return r.buildLog(), nil, nil
	}
	ck = r.capture()
	return ck.Partial, ck, nil
}

// usesPS reports whether the strategy exchanges gradients through the
// parameter server.
func (r *runner) usesPS() bool { return r.cfg.Strategy == A3C || r.cfg.Strategy == A2C }

func (r *runner) psConfig() ps.Config {
	mode := ps.Async
	if r.cfg.Strategy == A2C {
		mode = ps.Sync
	}
	return ps.Config{Mode: mode, Agents: r.cfg.Agents, Window: r.cfg.PSWindow, Latency: r.cfg.PSLatency}
}

// buildAgents constructs the agent set from the root stream. The draw
// sequence (Split for the agent stream, then Uint64 or Split for the
// strategy state) is load-bearing: a resumed allocation replays it
// bit-for-bit before overwriting each agent's state.
func (r *runner) buildAgents(root *rng.Rand) {
	for i := 0; i < r.cfg.Agents; i++ {
		a := &agent{id: i, r: r, rand: root.Split()}
		switch r.cfg.Strategy {
		case A3C, A2C:
			a.ctrl = rl.NewController(r.space, root.Uint64(), r.cfg.RL)
		case EVO:
			a.evo = newEvoState(r.cfg.EvoPopulation, root.Split())
		}
		r.agents = append(r.agents, a)
	}
}

// buildLog assembles the analytics log from the runner's current state —
// final when the event queue has drained, partial at a walltime cut.
func (r *runner) buildLog() *Log {
	end := r.endTime
	if end == 0 {
		end = r.sim.Now()
	}
	log := &Log{
		Bench:       r.bench.Name,
		SpaceName:   r.space.Name,
		Config:      r.cfg,
		Results:     r.eval.Trace,
		Utilization: r.service.UtilizationSeries(60),
		UtilBucket:  60,
		EndTime:     end,
		Converged:   r.converged,
		Evaluations: r.service.Finished(),

		NodeFailures:  r.service.NodeFailures(),
		Retries:       r.service.Retries(),
		PartialRounds: r.partialRounds,
	}
	for _, res := range log.Results {
		if res.Cached {
			log.CacheHits++
		}
		if res.Failed {
			log.FailedEvals++
		}
	}
	if r.psrv != nil {
		log.PS = r.psrv.Stats()
	}
	return log
}

// setPhase moves the agent's state machine to phase p and records the
// transition. Checkpoint restore assigns a.phase directly instead: the
// transition was already recorded by the allocation that performed it, so
// a resumed run's trace concatenates without duplicate phase events.
func (a *agent) setPhase(p int) {
	a.phase = p
	a.r.sim.Recorder().Emit(trace.Event{Cat: trace.CatSearch, Name: trace.EvPhase,
		Node: trace.None, Agent: a.id, Value: float64(p), Detail: phaseName(p)})
}

func (a *agent) startRound() {
	r := a.r
	if r.converged || r.sim.Now() >= r.cfg.Horizon {
		a.setPhase(phaseIdle)
		return
	}
	m := r.cfg.WorkersPerAgent
	switch {
	case a.ctrl != nil:
		a.eps = a.ctrl.Sample(m)
	case a.evo != nil:
		a.eps = a.sampleEvo(m)
	default:
		a.eps = make([]*rl.Episode, m)
		for i := range a.eps {
			a.eps[i] = &rl.Episode{Choices: r.space.RandomChoices(a.rand)}
		}
	}
	a.setPhase(phaseEval)
	a.curEpoch = 0
	a.pending = m
	a.cached = 0
	a.failedEp = make([]bool, m)
	a.pendingJobs = make([]int64, m)
	for i, ep := range a.eps {
		a.pendingJobs[i] = r.eval.Submit(a.id, ep.Choices, a.evalDone(i))
	}
}

// evalDone builds the delivery callback of episode i — a named constructor
// so a resumed run can re-attach the identical callback to a restored
// in-flight job.
func (a *agent) evalDone(i int) func(*evaluator.Result) {
	return func(res *evaluator.Result) {
		a.pendingJobs[i] = 0
		a.eps[i].Reward = res.Reward
		if res.Cached {
			a.cached++
		}
		if res.Failed || math.IsNaN(res.Reward) || math.IsInf(res.Reward, 0) {
			// The evaluator already converts non-finite rewards into failed
			// results; the extra check here is defense in depth so a NaN can
			// never reach a policy update through any future path.
			a.failedEp[i] = true
		}
		a.pending--
		if a.pending == 0 {
			a.roundDone()
		}
	}
}

// liveEps returns the round's episodes minus the failed ones. With no
// failures it returns the batch slice itself, so fault-free runs follow the
// exact original code path.
func (a *agent) liveEps() []*rl.Episode {
	if !slices.Contains(a.failedEp, true) {
		return a.eps
	}
	live := make([]*rl.Episode, 0, len(a.eps))
	for i, ep := range a.eps {
		if !a.failedEp[i] {
			live = append(live, ep)
		}
	}
	return live
}

func (a *agent) roundDone() {
	r := a.r
	// Convergence accounting: a fully cached round means this agent's
	// policy keeps regenerating architectures it has already evaluated.
	if a.cached == len(a.eps) {
		r.cachedRounds[a.id]++
	} else {
		r.cachedRounds[a.id] = 0
	}
	if r.cfg.ConvergeRounds > 0 && !r.converged {
		all := true
		for _, c := range r.cachedRounds {
			if c < r.cfg.ConvergeRounds {
				all = false
				break
			}
		}
		if all {
			r.converged = true
			r.endTime = r.sim.Now()
			r.sim.Recorder().Emit(trace.Event{Cat: trace.CatSearch, Name: trace.EvConverged,
				Node: trace.None, Agent: a.id})
		}
	}
	if slices.Contains(a.failedEp, true) {
		// The round proceeds with whatever survived — the A2C barrier must
		// never wait on a job the substrate has declared dead.
		r.partialRounds++
	}
	if a.evo != nil {
		a.evoRoundDone(a.liveEps())
		return
	}
	if a.ctrl == nil {
		// RDM: no learning; begin the next batch after a short
		// resubmission latency (Balsam database round-trip). The delay
		// also guarantees virtual time advances even on all-cached
		// rounds, so the event loop always terminates.
		a.waitNextRound()
		return
	}
	a.ppoEpoch(0)
}

// waitNextRound schedules the RDM/EVO resubmission latency.
func (a *agent) waitNextRound() {
	a.setPhase(phaseRoundWait)
	a.r.sim.AtHandlerE(1, a)
}

// ppoEpoch runs PPO epoch k: compute the gradient, exchange it through the
// parameter server, apply the average, recurse. A round whose evaluations
// all failed still exchanges a zero gradient, so the synchronous A2C
// barrier completes instead of stalling the other agents forever.
func (a *agent) ppoEpoch(k int) {
	a.curEpoch = k
	if k >= a.ctrl.Cfg.Epochs {
		a.startRound()
		return
	}
	batch := a.liveEps()
	var grad []float64
	if len(batch) > 0 {
		grad, _ = a.ctrl.ComputeGradient(batch)
	} else {
		grad = make([]float64, a.ctrl.Params().Count())
	}
	a.setPhase(phaseExchange)
	a.r.psrv.Exchange(a.id, grad, a.gradAveraged)
}

// gradAveraged receives the averaged gradient from the parameter server and
// schedules the UpdateCost delay before it is applied.
func (a *agent) gradAveraged(avg []float64) {
	a.setPhase(phaseUpdate)
	a.pendingAvg = avg
	a.r.sim.AtHandlerE(a.r.cfg.UpdateCost, a)
}

// applyUpdate applies the pending averaged gradient and moves to the next
// PPO epoch.
func (a *agent) applyUpdate() {
	avg := a.pendingAvg
	a.pendingAvg = nil
	a.ctrl.ApplyGradient(avg)
	a.ppoEpoch(a.curEpoch + 1)
}
