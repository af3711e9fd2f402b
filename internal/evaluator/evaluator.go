// Package evaluator implements the paper's model-evaluation interface (§4):
// the layer between search strategies and the execution backend: Submit,
// whose callback delivers each result on the virtual timeline, and the
// per-agent evaluation cache.
//
// Reward estimation is hybrid, per the substitution plan in DESIGN.md:
//
//   - the VIRTUAL duration of a task comes from the analytic cost model at
//     the original paper dimensions (so timing, timeout, and utilization
//     dynamics match the paper's regime);
//   - the REWARD comes from genuinely training the architecture, compiled
//     at scaled dimensions, on the synthetic benchmark data — truncated to
//     the same fraction of its training budget that the virtual task
//     achieved before the timeout, so timed-out architectures really do
//     produce partially trained models and poor rewards.
//
// The cache is agent-local: the paper explicitly avoids a global cache
// because it would nullify agent-specific random weight initialization
// (§4). Cached submissions complete immediately without occupying a worker
// node, which is what produces the late-search utilization decay of
// Figures 5 and 6.
package evaluator

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/data"
	"nasgo/internal/hpc"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/trace"
	"nasgo/internal/train"
)

// Result is one finished reward estimation.
type Result struct {
	AgentID int
	Key     string
	Choices []int
	// Reward is the validation metric (R² or accuracy) of the trained
	// model; the agent's learning signal.
	Reward float64
	// Params and TrainTime are the paper-dimension analytic metrics used
	// for post-training selection and Table 1.
	Params   int64
	FwdFLOPs float64
	// Cached marks a per-agent cache hit (no task was launched).
	Cached bool
	// TimedOut marks a task killed at the 10-minute limit.
	TimedOut bool
	// Failed marks an estimation that produced no reward: either the
	// architecture failed to compile, or every execution attempt was killed
	// by a node failure. Failed results are never cached, so a later
	// resubmission of the same architecture runs again.
	Failed bool
	// Err describes why a Failed result failed (empty otherwise).
	Err string
	// Attempts is how many times the task started on a worker node (1 on a
	// fault-free machine, 0 for cache hits and compile failures).
	Attempts int
	// Duration is the task's virtual seconds (0 for cache hits).
	Duration float64
	// FinishTime is the virtual time the result became available.
	FinishTime float64
}

// Config parameterizes an Evaluator.
type Config struct {
	// Fidelity is the training-data fraction used during reward
	// estimation; 0 means the benchmark default (§5: Combo 10%, others
	// 100%). This is the knob of the paper's fidelity study (Fig. 11/12).
	Fidelity float64
	// Epochs is the number of reward-estimation training epochs
	// (paper: 1).
	Epochs int
	// Timeout is the task wall-clock limit in virtual seconds
	// (paper: 600).
	Timeout float64
	// RealBatchSize is the batch size for the real scaled-down training;
	// 0 derives it from the benchmark batch size, capped for the small
	// synthetic datasets.
	RealBatchSize int
	// RealEpochs is how many real epochs the scaled-down training runs
	// per virtual epoch (default 4). The scaled problem has far fewer
	// samples than the paper's, so a single real epoch would represent
	// much less learning progress than one paper epoch; this multiplier
	// restores the correspondence. Timeout truncation applies to the
	// combined real budget proportionally.
	RealEpochs int
	// RealLR is the Adam learning rate of the real scaled-down training
	// (default 0.005). The paper uses Keras's 0.001 at full scale; the
	// scaled problem takes proportionally fewer gradient steps per epoch,
	// so a slightly higher rate restores the per-epoch learning progress:
	// the setting under which MLPs beat the linear readout in
	// TestFitImprovesR2OnCombo. It is not a calibration to the paper's
	// 0.3–0.6 band — QuickScale Combo rewards are ≤ 0 (EXPERIMENTS.md).
	RealLR float64
	// GlobalCache shares one evaluation cache across all agents instead
	// of the paper's per-agent caches. The paper rejects this design
	// because it nullifies agent-specific random weight initialization
	// (§4); the option exists for the cache-scope ablation.
	GlobalCache bool
	// SizeWeight and TimeWeight enable the paper's custom multi-objective
	// rewards (§5: "other metrics can be specified, such as model size,
	// training time, and inference time ... using a custom reward
	// function"). The shaped reward is
	//
	//	metric − SizeWeight·log10(P/10⁶ + 1) − TimeWeight·log10(T/60 + 1)
	//
	// with P the paper-dimension parameter count and T the estimated
	// single-epoch KNL training time in seconds. Zero weights reproduce
	// the paper's accuracy-only reward.
	SizeWeight float64
	TimeWeight float64
	// Workers bounds how many real scaled-dimension trainings may run
	// concurrently on the host (DESIGN.md §5). The virtual machine is
	// untouched: Submit starts each training as a future and the task's
	// completion event on the simulated timeline joins it, so results are
	// byte-identical at every setting — the pool buys wall-clock speedup
	// only. 0 (the default) resolves to GOMAXPROCS at construction time,
	// never in the config itself, so checkpoints stay machine-independent;
	// 1 (or a 1-core host) disables the pool and trains inline, the exact
	// pre-pool serial machine.
	Workers int
	// NoArena disables the workspace-arena/buffer-reuse fast path of
	// train.Fit and train.Evaluate during reward estimation. Rewards are
	// bitwise identical either way; the flag is a diagnostic for the arena
	// differential tests and benchmarks.
	NoArena bool
	// Seed drives per-task weight initialization and subsampling.
	Seed uint64
	// BenchSeed, when nonzero, switches reward estimation to benchmark
	// mode: the fidelity-subsample stream and every per-task training
	// stream derive from BenchSeed and the architecture key alone — never
	// from Seed or the submitting agent — so each architecture has exactly
	// one reward, identical across agents and across searches. This is the
	// protocol a tabular NAS benchmark requires (NAS-Bench-201, DESIGN.md
	// §15): a table built at BenchSeed B replays any search whose evaluator
	// also runs at BenchSeed B, whatever its search seed. Caches stay
	// per-agent; only the reward values coincide. The json tag keeps
	// zero-value (live-mode) logs byte-identical to pre-benchmark ones:
	// committed golden digests hash the log JSON, Config included.
	BenchSeed uint64 `json:",omitempty"`
}

func (c Config) withDefaults(b *candle.Benchmark) Config {
	if c.Fidelity == 0 {
		c.Fidelity = b.RewardTrainFrac
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 600
	}
	if c.RealBatchSize == 0 {
		c.RealBatchSize = b.BatchSize
		if c.RealBatchSize > 16 {
			c.RealBatchSize = 16
		}
	}
	if c.RealEpochs == 0 {
		c.RealEpochs = 4
	}
	if c.RealLR == 0 {
		c.RealLR = 0.005
	}
	return c
}

// Evaluator runs reward estimations for one benchmark and search space over
// the Balsam service.
type Evaluator struct {
	Bench *candle.Benchmark
	Space *space.Space
	Cfg   Config

	sim     *hpc.Sim
	service *balsam.Service
	// paperDims and scaledDims are the input dims of every estimation's two
	// compiles, fixed by the space and the benchmark.
	paperDims, scaledDims []int

	// caches[agentID][archKey] holds the agent's previously estimated
	// reward.
	caches map[int]map[string]*Result
	// agentSeeds gives each agent its weight-initialization stream.
	agentSeeds map[int]uint64
	rootRand   *rng.Rand

	// inflight tracks results whose virtual task is still executing on the
	// Balsam service, keyed by job ID, so a checkpoint can capture them and
	// Relink can re-attach callbacks after a restore.
	inflight map[int64]*inflightRecord

	// rewardTrain is the fixed low-fidelity training subset shared by all
	// tasks (the paper trains on a fixed 10% of Combo, not a fresh random
	// subsample per task). New splits its stream off rootRand; the first
	// trainReal gathers it, on whichever goroutine gets there — an evaluator
	// serving only a RewardSource or cache hits never does.
	rewardTrain *data.Dataset
	subRand     *rng.Rand
	gatherOnce  sync.Once

	// Trace records every result, cache hits included, in completion order.
	Trace []*Result

	// sem gates the concurrent-training pool (pool.go); nil when
	// Cfg.Workers resolves to 1, which disables the pool entirely.
	sem chan struct{}

	// src, when non-nil, serves raw reward metrics by architecture key in
	// place of real training (SetRewardSource). Everything else — virtual
	// plan, Balsam task, caches, RNG positions — runs exactly as live.
	src RewardSource
}

// RewardSource serves precomputed raw validation metrics by architecture
// key — the replay backend of a tabular NAS benchmark artifact
// (internal/nasbench). The metric is the value trainReal would have
// returned (reward shaping is applied by the evaluator at replay time, and
// a non-finite metric reproduces the live failure path bit-for-bit).
type RewardSource interface {
	// Metric returns the stored raw metric for key, and whether the key is
	// tabulated.
	Metric(key string) (float64, bool)
}

// SetRewardSource attaches a replay source. It must be called before the
// first Submit, and the evaluator must run in benchmark mode
// (Cfg.BenchSeed != 0) with the source's build configuration — otherwise
// the served rewards would not match what live training produces and the
// replay guarantee is void. A submission whose key the source does not
// cover panics: the search space must be the tabulated sub-space.
func (e *Evaluator) SetRewardSource(src RewardSource) {
	if src != nil && e.Cfg.BenchSeed == 0 {
		panic("evaluator: reward source requires benchmark mode (Config.BenchSeed != 0)")
	}
	e.src = src
}

// New creates an evaluator over the given simulator and Balsam service.
func New(sim *hpc.Sim, service *balsam.Service, bench *candle.Benchmark, sp *space.Space, cfg Config) *Evaluator {
	cfg = cfg.withDefaults(bench)
	if cfg.Fidelity <= 0 || cfg.Fidelity > 1 {
		panic(fmt.Sprintf("evaluator: fidelity %g out of (0,1]", cfg.Fidelity))
	}
	rootSeed := cfg.Seed
	if cfg.BenchSeed != 0 {
		// Benchmark mode: the subsample (and thus every reward) is pinned
		// by BenchSeed, independent of the search-derived Seed.
		rootSeed = cfg.BenchSeed
	}
	e := &Evaluator{
		Bench:      bench,
		Space:      sp,
		Cfg:        cfg,
		sim:        sim,
		service:    service,
		caches:     map[int]map[string]*Result{},
		agentSeeds: map[int]uint64{},
		rootRand:   rng.New(rootSeed ^ 0xe7a10ae),
		inflight:   map[int64]*inflightRecord{},
		paperDims:  sp.PaperInputDims(),
		scaledDims: bench.Train.InputDims(),
	}
	e.rewardTrain = bench.Train
	if cfg.Fidelity < 1 {
		e.subRand = e.rootRand.Split()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		e.sem = make(chan struct{}, workers)
	}
	return e
}

func (e *Evaluator) agentSeed(agentID int) uint64 {
	s, ok := e.agentSeeds[agentID]
	if !ok {
		s = e.rootRand.Uint64()
		e.agentSeeds[agentID] = s
	}
	return s
}

// inflightRecord pairs an in-flight result with the cache it may occupy
// and the future computing its reward.
type inflightRecord struct {
	res     *Result
	cacheID int
	inCache bool
	fut     *future // nil once resolved (inline futures: before Submit returns)
}

// Submit schedules one reward estimation; onDone fires (in virtual time)
// with the result. Cache hits complete immediately via a zero-delay event.
// It returns the Balsam job ID of the launched task, or 0 when the
// submission completed without a task (cache hit or compile failure) —
// zero-delay deliveries always fire within the current timestep, so only
// real tasks can be in flight at a checkpoint cut.
func (e *Evaluator) Submit(agentID int, choices []int, onDone func(*Result)) int64 {
	var buf [160]byte // the catalog's keys fit; a hit allocates no key
	kb := e.Space.AppendHash(buf[:0], choices)
	cacheID := agentID
	if e.Cfg.GlobalCache {
		cacheID = -1
	}
	cache := e.caches[cacheID]
	if cache == nil {
		cache = map[string]*Result{}
		e.caches[cacheID] = cache
	}
	if prev, ok := cache[string(kb)]; ok {
		e.join(prev)
		if _, still := cache[string(kb)]; still {
			e.sim.Recorder().Emit(trace.Event{Cat: trace.CatEval, Name: trace.EvCacheHit,
				Node: trace.None, Agent: agentID, Detail: prev.Key})
			res := *prev
			res.Cached = true
			res.Duration = 0
			e.sim.At(0, func() {
				res.FinishTime = e.sim.Now()
				e.record(&res)
				onDone(&res)
			})
			return 0
		}
	}

	// The prologue — both compiles, the virtual plan, the RNG stream
	// derivation — always runs here, synchronously in Submit order, so RNG
	// positions and compile failures are identical at every Workers setting.
	// A malformed architecture must not kill the campaign: surface the
	// compile error as a failed result.
	key := string(kb)
	stats, plan, metric, err := e.estimation(agentID, key, choices)
	if err != nil {
		e.failCompile(agentID, key, choices, err.Error(), onDone)
		return 0
	}

	res := &Result{
		AgentID:  agentID,
		Key:      key,
		Choices:  append([]int(nil), choices...),
		Params:   stats.Params,
		FwdFLOPs: stats.FwdFLOPs,
		TimedOut: plan.TimedOut,
		Duration: plan.Duration,
	}
	// The cache insert happens at submit time, so duplicate submissions in
	// flight still hit; settle undoes it if the estimation diverges. The
	// reward is revealed when the virtual task completes.
	cache[key] = res
	rec := &inflightRecord{res: res, cacheID: cacheID, inCache: true}
	e.start(rec, metric, stats)
	e.sim.Recorder().Emit(trace.Event{Cat: trace.CatEval, Name: trace.EvTaskSubmit,
		Node: trace.None, Agent: agentID, Value: plan.Duration, Detail: key})
	id := e.service.Submit(&balsam.Job{
		AgentID:  agentID,
		Key:      key,
		Duration: plan.Duration,
		TimedOut: plan.TimedOut,
		OnDone:   e.jobOnDone(rec, onDone),
	})
	e.inflight[id] = rec
	return id
}

// jobOnDone builds the completion callback of one in-flight task. Factored
// out so Relink can rebuild the exact same callback on a restored service.
func (e *Evaluator) jobOnDone(rec *inflightRecord, onDone func(*Result)) func(*balsam.Job) {
	return func(j *balsam.Job) {
		// Join the training future first (no-op for an inline one): this is
		// THE synchronization point of the worker pool, on the virtual
		// timeline, before any shared state below is touched.
		e.resolve(rec)
		delete(e.inflight, j.ID)
		res := rec.res
		res.FinishTime = e.sim.Now()
		res.Attempts = j.Attempts
		if j.State == balsam.StateFailed {
			// Every attempt was killed by a node failure.
			e.fail(rec, "all execution attempts killed by node failures")
			res.TimedOut = false
		}
		e.record(res)
		onDone(res)
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// failCompile delivers a Failed result for an architecture that cannot be
// compiled. Compile failures are deterministic, but they are still not
// cached: caching would hand later submissions a zero-reward hit instead of
// the explicit failure path, and the paper's cache holds estimations only.
func (e *Evaluator) failCompile(agentID int, key string, choices []int, msg string, onDone func(*Result)) {
	res := &Result{
		AgentID: agentID,
		Key:     key,
		Choices: append([]int(nil), choices...),
		Failed:  true,
		Err:     "evaluator: " + msg,
	}
	e.sim.Recorder().Emit(trace.Event{Cat: trace.CatEval, Name: trace.EvCompileError,
		Node: trace.None, Agent: agentID, Detail: key})
	e.sim.At(0, func() {
		res.FinishTime = e.sim.Now()
		e.record(res)
		onDone(res)
	})
}

// paperPlan builds the paper-dimension virtual task plan for one
// architecture — the single source of timing for Submit and TabulateMetric.
func (e *Evaluator) paperPlan(stats space.ArchStats) hpc.RewardEstimate {
	virtTrainSamples := int(float64(e.Bench.PaperTrainSamples) * e.Cfg.Fidelity)
	return hpc.PlanRewardEstimate(stats, hpc.EvalTaskConfig{
		Device:       hpc.KNL,
		TrainSamples: virtTrainSamples,
		ValSamples:   e.Bench.PaperValSamples,
		BatchSize:    e.Bench.BatchSize,
		Epochs:       e.Cfg.Epochs,
		StageSeconds: e.Bench.FullStageSeconds * e.Cfg.Fidelity,
		Timeout:      e.Cfg.Timeout,
	})
}

// TabulateMetric runs one architecture's reward estimation outside the
// virtual machine: the same prologue and the same training draws a live
// Submit performs, but no task, no cache, no trace — the internal/nasbench
// builder's path. It requires benchmark mode, where the training stream
// depends on the architecture alone, so the returned raw metric is exactly
// what any live bench-mode Submit of the same architecture would feed
// shapeReward (non-finite when the training diverged — stored as-is so
// replay reproduces the failure path bit-for-bit). A compile failure at
// either dimension set returns an error carrying the same message Submit's
// failure path records.
func (e *Evaluator) TabulateMetric(choices []int) (float64, hpc.RewardEstimate, error) {
	if e.Cfg.BenchSeed == 0 {
		panic("evaluator: TabulateMetric requires benchmark mode (Config.BenchSeed != 0)")
	}
	_, plan, metric, err := e.estimation(0, e.Space.Hash(choices), choices)
	if err != nil {
		return 0, hpc.RewardEstimate{}, fmt.Errorf("evaluator: %v", err)
	}
	return metric(), plan, nil
}

// taskSeed is the seed the per-task training stream mixes with the
// architecture key. Live mode takes the agent's seed (drawn from rootRand at
// first use — a shared-stream draw that replay must reproduce identically);
// benchmark mode depends on the architecture alone, so every agent trains the
// same weights and a reward table needs one row per architecture.
func (e *Evaluator) taskSeed(agentID int) uint64 {
	if e.Cfg.BenchSeed != 0 {
		return e.Cfg.BenchSeed
	}
	return e.agentSeed(agentID)
}

// estimation is the synchronous prologue of one reward estimation, shared by
// Submit and TabulateMetric: the paper-dimension compile and virtual plan,
// the per-task seed (derived in submit order, so stream positions are
// identical at every Workers setting), and the scaled-dimension compile,
// whose failure must surface at submit time. The returned metric thunk is
// the only deferred part — the real training, or the table lookup a reward
// source replaces it with — and may run on any goroutine.
func (e *Evaluator) estimation(agentID int, key string, choices []int) (space.ArchStats, hpc.RewardEstimate, func() float64, error) {
	paperIR, err := e.Space.Compile(choices, e.paperDims, 1.0)
	if err != nil {
		return space.ArchStats{}, hpc.RewardEstimate{}, nil, fmt.Errorf("compile at paper dims: %v", err)
	}
	stats := paperIR.Stats()
	plan := e.paperPlan(stats)
	seed := e.taskSeed(agentID)
	ir, err := e.Space.Compile(choices, e.scaledDims, e.Bench.UnitScale)
	if err != nil {
		return space.ArchStats{}, hpc.RewardEstimate{}, nil, fmt.Errorf("compile at scaled dims: %v", err)
	}
	if e.src != nil {
		return stats, plan, func() float64 {
			metric, ok := e.src.Metric(key)
			if !ok {
				panic(fmt.Sprintf("evaluator: architecture %s missing from reward table (search space must be the tabulated sub-space)", key))
			}
			return metric
		}, nil
	}
	taskRand := rng.New(seed ^ hashKey(key))
	return stats, plan, func() float64 { return e.trainReal(taskRand, ir, plan) }, nil
}

// trainReal trains the scaled-down architecture and returns the validation
// metric. The virtual plan's achieved batch fraction truncates the real
// training budget, so virtual timeouts degrade real rewards. It draws only
// from taskRand and reads only immutable evaluator state, so the worker
// pool may run it on any goroutine.
func (e *Evaluator) trainReal(taskRand *rng.Rand, ir *space.ArchIR, plan hpc.RewardEstimate) float64 {
	model := ir.BuildModel(taskRand.Split())

	e.gatherOnce.Do(func() {
		if e.subRand != nil {
			e.rewardTrain = e.Bench.Train.Subsample(e.Cfg.Fidelity, e.subRand)
		}
	})
	ds := e.rewardTrain
	realEpochs := e.Cfg.Epochs * e.Cfg.RealEpochs
	realBatches := (ds.N() + e.Cfg.RealBatchSize - 1) / e.Cfg.RealBatchSize * realEpochs
	maxBatches := realBatches
	virtTotal := e.virtualTotalBatches()
	if plan.TimedOut && virtTotal > 0 {
		frac := float64(plan.TrainBatches) / float64(virtTotal)
		maxBatches = int(math.Floor(frac * float64(realBatches)))
	}
	if maxBatches > 0 {
		train.Fit(model, ds, train.Config{
			Epochs:     realEpochs,
			BatchSize:  e.Cfg.RealBatchSize,
			MaxBatches: maxBatches,
			Optimizer:  optim.NewAdam(e.Cfg.RealLR),
			Rand:       taskRand.Split(),
			NoArena:    e.Cfg.NoArena,
		})
	}
	if e.Cfg.NoArena {
		return train.EvaluateNoArena(model, e.Bench.Val)
	}
	return train.Evaluate(model, e.Bench.Val)
}

// virtualTotalBatches returns the virtual plan's full batch count for the
// current fidelity, to translate the timeout truncation into real batches.
func (e *Evaluator) virtualTotalBatches() int {
	samples := int(float64(e.Bench.PaperTrainSamples) * e.Cfg.Fidelity)
	return (samples + e.Bench.BatchSize - 1) / e.Bench.BatchSize * e.Cfg.Epochs
}

func (e *Evaluator) record(r *Result) {
	var flag string
	switch {
	case r.Cached:
		flag = "cached"
	case r.Failed:
		flag = "failed"
	case r.TimedOut:
		flag = "timeout"
	}
	e.sim.Recorder().Emit(trace.Event{Kind: trace.KindSpan, Cat: trace.CatEval, Name: trace.EvResult,
		Dur: r.Duration, Node: trace.None, Agent: r.AgentID, Value: r.Reward, Detail: flag})
	e.Trace = append(e.Trace, r)
}

// shapeReward applies the optional multi-objective penalties.
func (e *Evaluator) shapeReward(metric float64, st space.ArchStats) float64 {
	r := metric
	if e.Cfg.SizeWeight != 0 {
		r -= float64(e.Cfg.SizeWeight * math.Log10(float64(st.Params)/1e6+1))
	}
	if e.Cfg.TimeWeight != 0 {
		t := hpc.KNL.TrainTime(st, e.Bench.PaperTrainSamples, 1)
		r -= float64(e.Cfg.TimeWeight * math.Log10(t/60+1))
	}
	return r
}

// InflightState is one not-yet-completed reward estimation in a checkpoint.
type InflightState struct {
	JobID   int64
	CacheID int
	// InCache says whether the result occupies its agent's cache (false for
	// a diverged estimation, which fail marked Failed and evicted).
	InCache bool
	Result  Result
}

// State is the complete serializable state of an Evaluator: the per-agent
// caches, the agent seed assignments and root stream position, the
// completion-order trace (which counts the cache hits), and the in-flight
// tasks.
type State struct {
	Caches     map[int]map[string]Result
	AgentSeeds map[int]uint64
	RootRand   rng.State
	Trace      []Result
	Inflight   []InflightState
}

// CaptureState snapshots the evaluator. Results are deep-copied. Pending
// training futures are drained (joined) first — a checkpoint must never
// serialize a half-trained result — which makes the snapshot byte-identical
// to the serial machine's at the same cut.
func (e *Evaluator) CaptureState() *State {
	e.drain()
	st := &State{
		Caches:     map[int]map[string]Result{},
		AgentSeeds: map[int]uint64{},
		RootRand:   e.rootRand.State(),
	}
	for id, cache := range e.caches {
		m := map[string]Result{}
		for k, r := range cache {
			m[k] = valueOf(r)
		}
		st.Caches[id] = m
	}
	for id, s := range e.agentSeeds {
		st.AgentSeeds[id] = s
	}
	for _, r := range e.Trace {
		st.Trace = append(st.Trace, valueOf(r))
	}
	for id, rec := range e.inflight {
		st.Inflight = append(st.Inflight, InflightState{
			JobID: id, CacheID: rec.cacheID, InCache: rec.inCache,
			Result: valueOf(rec.res),
		})
	}
	sort.Slice(st.Inflight, func(i, j int) bool { return st.Inflight[i].JobID < st.Inflight[j].JobID })
	return st
}

// Restore rebuilds an evaluator from a captured state over a restored Balsam
// service. It runs the normal constructor first (re-splitting the fidelity
// subsample's stream, so the subset a later training gathers is identical),
// then overwrites the mutable state. In-flight jobs are registered but their
// callbacks stay detached until the owner calls Relink for each.
func Restore(sim *hpc.Sim, service *balsam.Service, bench *candle.Benchmark, sp *space.Space, cfg Config, st *State) *Evaluator {
	e := New(sim, service, bench, sp, cfg)
	e.rootRand.SetState(st.RootRand)
	for id, cache := range st.Caches {
		m := map[string]*Result{}
		for k, r := range cache {
			m[k] = pointerTo(r)
		}
		e.caches[id] = m
	}
	for id, s := range st.AgentSeeds {
		e.agentSeeds[id] = s
	}
	for _, r := range st.Trace {
		e.Trace = append(e.Trace, pointerTo(r))
	}
	for _, rec := range st.Inflight {
		res := pointerTo(rec.Result)
		e.inflight[rec.JobID] = &inflightRecord{res: res, cacheID: rec.CacheID, inCache: rec.InCache}
		if rec.InCache {
			// Re-establish pointer identity between the in-flight result and
			// its cache slot, so a later FAILED completion evicts it.
			cache := e.caches[rec.CacheID]
			if cache == nil {
				cache = map[string]*Result{}
				e.caches[rec.CacheID] = cache
			}
			cache[res.Key] = res
		}
	}
	return e
}

// Relink re-attaches the completion callback of one restored
// in-flight job. The owner must call it for every in-flight job before
// resuming the simulation; InflightCount reports how many there are.
func (e *Evaluator) Relink(jobID int64, onDone func(*Result)) {
	rec := e.inflight[jobID]
	if rec == nil {
		panic(fmt.Sprintf("evaluator: Relink of unknown in-flight job %d", jobID))
	}
	job := e.service.Job(jobID)
	if job == nil {
		panic(fmt.Sprintf("evaluator: in-flight job %d missing from restored service", jobID))
	}
	job.OnDone = e.jobOnDone(rec, onDone)
}

// InflightCount returns the number of in-flight reward estimations.
func (e *Evaluator) InflightCount() int { return len(e.inflight) }

func valueOf(r *Result) Result {
	v := *r
	v.Choices = append([]int(nil), r.Choices...)
	return v
}

func pointerTo(r Result) *Result {
	r.Choices = append([]int(nil), r.Choices...)
	return &r
}

func hashKey(s string) uint64 {
	// FNV-1a.
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
