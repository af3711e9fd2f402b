// Package nasgo is a from-scratch Go reproduction of "Scalable
// Reinforcement-Learning-Based Neural Architecture Search for Cancer Deep
// Learning Research" (Balaprakash et al., SC 2019): the DeepHyper-style NAS
// module, its cancer-specific graph search spaces, the PPO-based A3C/A2C
// multi-agent search with a parameter server (plus the RDM and EVO
// baselines over the same batch discipline), and the simulated Theta/Balsam
// execution substrate the paper's scaling study runs on.
//
// This package is the public façade. The heavy lifting lives in the
// internal packages; the types re-exported here are the stable surface the
// examples and command-line tools build on:
//
//	bench, _ := nasgo.NewBenchmark("Combo", nasgo.BenchmarkConfig{Seed: 1})
//	sp, _ := bench.Space("small")
//	log := nasgo.RunSearch(bench, sp, nasgo.SearchConfig{
//		Strategy: nasgo.A3C, Agents: 8, WorkersPerAgent: 5, Horizon: 3 * 3600,
//	})
//	report := nasgo.PostTrain(bench, sp, log.TopK(10), nasgo.PostTrainConfig{})
//
// A search that has to outlive its process runs as a chain of walltime
// allocations through the one allocation entry point: AllocateSearch returns
// a checkpoint at each SearchConfig.Walltime boundary, and handing it back —
// now or after SearchCheckpoint.WriteFileFS / LoadSearchCheckpoint — continues
// the run bit-for-bit.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure and table.
package nasgo

import (
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/experiments"
	"nasgo/internal/fsim"
	"nasgo/internal/hpc"
	"nasgo/internal/modelio"
	"nasgo/internal/nn"
	"nasgo/internal/posttrain"
	"nasgo/internal/search"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// Search strategy names (§3.2 of the paper).
const (
	// A3C is asynchronous advantage actor-critic with PPO updates.
	A3C = search.A3C
	// A2C is the synchronous variant.
	A2C = search.A2C
	// RDM is random search over the same space and batch discipline.
	RDM = search.RDM
	// EVO is regularized (aging) evolution over the same space and batch
	// discipline.
	EVO = search.EVO
)

// Re-exported core types. Each alias is documented at its definition.
type (
	// Benchmark bundles a CANDLE problem: data, baseline, settings.
	Benchmark = candle.Benchmark
	// BenchmarkConfig seeds and scales a benchmark.
	BenchmarkConfig = candle.Config
	// Space is a NAS search space (Structure of Cells of Blocks).
	Space = space.Space
	// ArchIR is a compiled architecture.
	ArchIR = space.ArchIR
	// ArchStats holds analytic parameter/FLOP counts.
	ArchStats = space.ArchStats
	// SearchConfig parameterizes a multi-agent search run.
	SearchConfig = search.Config
	// SearchLog is a completed run's trace.
	SearchLog = search.Log
	// EvalResult is one reward estimation.
	EvalResult = evaluator.Result
	// EvaluatorConfig controls reward estimation fidelity and timeout.
	EvaluatorConfig = evaluator.Config
	// PostTrainConfig controls post-training.
	PostTrainConfig = posttrain.Config
	// PostTrainReport compares post-trained architectures to the baseline.
	PostTrainReport = posttrain.Report
	// ExperimentScale sets the resource knobs of paper experiments.
	ExperimentScale = experiments.Scale
	// FaultModel injects deterministic node failures and stragglers into
	// the simulated machine (SearchConfig.Faults); the zero value is a
	// perfect machine.
	FaultModel = hpc.FaultModel
	// SearchCheckpoint is the complete state of a search interrupted at a
	// walltime boundary; AllocateSearch continues it bit-for-bit.
	SearchCheckpoint = search.Checkpoint
	// TraceRecorder records structured, virtual-clock-keyed events from
	// every layer of the simulated machine (attach with the *Traced run
	// variants); internal/trace exports JSONL and Chrome trace_event forms.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
)

// NewBenchmark builds a CANDLE benchmark ("Combo", "Uno", or "NT3").
func NewBenchmark(name string, cfg BenchmarkConfig) (*Benchmark, error) {
	return candle.ByName(name, cfg)
}

// NewSpace returns a catalog search space by name: combo-small,
// combo-large, uno-small, uno-large, or nt3-small.
func NewSpace(name string) (*Space, error) { return space.ByName(name) }

// SpaceNames lists the catalog search spaces.
func SpaceNames() []string { return space.CatalogNames() }

// RunSearch executes one multi-agent NAS run (deterministic in its
// configuration) and returns the trace.
func RunSearch(bench *Benchmark, sp *Space, cfg SearchConfig) *SearchLog {
	return search.Run(bench, sp, cfg)
}

// NewTraceRecorder creates a trace recorder for the *Traced run variants.
// capacity is the event ring-buffer size; 0 selects the default (2¹⁸).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// RunSearchTraced is RunSearch with a trace recorder attached to the
// simulated machine. A nil recorder reproduces RunSearch bit-for-bit; a
// non-nil one records the run's complete event stream without perturbing
// it.
func RunSearchTraced(bench *Benchmark, sp *Space, cfg SearchConfig, rec *TraceRecorder) (*SearchLog, error) {
	return search.RunTraced(bench, sp, cfg, rec)
}

// LoadSearchLog reads a log saved with SearchLog.WriteJSONFS.
func LoadSearchLog(path string) (*SearchLog, error) { return search.LoadLogFS(fsim.OS, path) }

// AllocateSearch runs one walltime allocation of a search with a trace
// recorder attached (rec may be nil): ck == nil starts from cfg, ck != nil
// continues the checkpoint under its own configuration. It returns the final
// log when the search completed inside the allocation, or a partial log plus
// a checkpoint to hand back — in this process or, via
// SearchCheckpoint.WriteFileFS and LoadSearchCheckpoint, in a later one. The
// chained run's log is bit-identical to an uninterrupted run of the same
// configuration, and handing successive allocations the same recorder yields
// one seamless trace of the whole chain.
func AllocateSearch(bench *Benchmark, sp *Space, cfg SearchConfig, ck *SearchCheckpoint, rec *TraceRecorder) (*SearchLog, *SearchCheckpoint, error) {
	return search.Allocate(bench, sp, cfg, ck, rec)
}

// LoadSearchCheckpoint reads a checkpoint saved with
// SearchCheckpoint.WriteFileFS, rejecting truncated or corrupted files.
func LoadSearchCheckpoint(path string) (*SearchCheckpoint, error) {
	return search.LoadCheckpointFS(fsim.OS, path)
}

// PostTrain retrains the given top architectures for the paper's 20 epochs
// (configurable) and compares them to the manually designed baseline.
func PostTrain(bench *Benchmark, sp *Space, top []*EvalResult, cfg PostTrainConfig) *PostTrainReport {
	return posttrain.Run(bench, sp, top, cfg)
}

// RenderExperiment regenerates a paper table or figure by id ("fig4" …
// "fig13", "table1") at the given scale and returns its textual rendering.
func RenderExperiment(id string, sc ExperimentScale) (string, error) {
	return experiments.Render(id, sc)
}

// ExperimentNames lists the regenerable tables and figures.
func ExperimentNames() []string { return experiments.Names() }

// ExperimentScaleByName returns a scale preset: "quick", "default", or
// "paper".
func ExperimentScaleByName(name string) (ExperimentScale, error) {
	return experiments.ScaleByName(name)
}

// Model is a trainable neural network built from an architecture.
type Model = nn.Model

// SaveModel persists a trained model together with its architecture
// identity (space, choices, dimensions, unit scale).
func SaveModel(path string, sp *Space, choices []int, inputDims []int, unitScale float64, m *Model) error {
	return modelio.SaveFS(fsim.OS, path, sp, choices, inputDims, unitScale, m)
}

// LoadModel reloads a model saved from a catalog space; for custom spaces
// use LoadModelWithSpace.
func LoadModel(path string) (*Model, *ArchIR, error) { return modelio.LoadFS(fsim.OS, path) }

// LoadModelWithSpace reloads a model saved from the given (custom) space.
func LoadModelWithSpace(path string, sp *Space) (*Model, *ArchIR, error) {
	return modelio.LoadWithSpace(fsim.OS, path, sp)
}
