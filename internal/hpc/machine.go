package hpc

import (
	"math"

	"nasgo/internal/space"
)

// Device models one compute device's effective deep learning throughput.
//
// A single FLOP/s rate cannot describe TensorFlow on real hardware: the
// manually designed CANDLE networks are clean chains of wide (1000-unit)
// layers that sustain near the framework's best throughput, while
// NAS-generated architectures are deeper, narrower, and full of
// concatenation/skip structure that fragments the GEMMs and serializes the
// graph. The model therefore derates the base rate by two factors derived
// from the architecture's analytic stats:
//
//   - width efficiency w̄/(w̄+WidthHalf): narrow layers waste SIMD lanes
//     and dominate dispatch overhead;
//   - depth efficiency sqrt(RefDepth/depth) for depth > RefDepth: each
//     extra sequential layer adds synchronization and cache-refill stalls.
//
// Base rates are calibrated so the manually designed Combo network (mean
// width 1000, depth 7) reproduces the paper's §5 training times: 2215.13 s
// for 20 epochs on a KNL node and 705.26 s on a K80 GPU
// (TestDeviceCalibration pins both).
type Device struct {
	Name string
	// Rate is the peak effective training throughput in FLOP/s, reached
	// by wide, shallow architectures.
	Rate float64
	// TaskStartup is the fixed per-task cost in seconds: Balsam job
	// launch plus Python/TensorFlow interpreter and framework
	// initialization. Data staging is separate (see EvalTaskConfig).
	TaskStartup float64
}

// WidthHalf is the layer width at which GEMM efficiency reaches half of
// peak.
const WidthHalf = 250.0

// RefDepth is the parameterized-layer depth of the reference (baseline)
// architecture; deeper graphs pay a sqrt depth penalty.
const RefDepth = 7.0

// KNL models one Theta Intel Knights Landing node (§5).
var KNL = Device{Name: "KNL", Rate: 3.2976e11, TaskStartup: 60}

// K80 models one GPU of a Cooley NVIDIA Tesla K80 card (§5).
var K80 = Device{Name: "K80", Rate: 1.03573e12, TaskStartup: 20}

// TrainStepFLOPs is the cost multiple of one training step relative to a
// forward pass (forward + input gradients + weight gradients).
const TrainStepFLOPs = 3.0

// EffRate returns the architecture-dependent effective throughput.
func (d Device) EffRate(st space.ArchStats) float64 {
	w := st.MeanWidth
	if w < 1 {
		w = 1
	}
	widthEff := w / (w + WidthHalf)
	depthEff := 1.0
	if float64(st.Depth) > RefDepth {
		depthEff = math.Sqrt(RefDepth / float64(st.Depth))
	}
	return d.Rate * widthEff * depthEff
}

// TrainTime returns the time in seconds to train an architecture with the
// given analytic stats for `epochs` epochs over `samples` examples on d.
// This is the paper's "training time" metric (T); it excludes task startup
// and data staging.
func (d Device) TrainTime(st space.ArchStats, samples, epochs int) float64 {
	return float64(epochs) * float64(samples) * TrainStepFLOPs * st.FwdFLOPs / d.EffRate(st)
}

// InferTime returns the time in seconds to run inference over `samples`
// examples on d.
func (d Device) InferTime(st space.ArchStats, samples int) float64 {
	return float64(samples) * st.FwdFLOPs / d.EffRate(st)
}

// RewardEstimate describes the virtual-time execution of one reward-
// estimation task under the paper's low-fidelity settings: a fixed number
// of training epochs (1 in all experiments), a training-data fraction, and
// a wall-clock timeout of 10 minutes on a single KNL node.
type RewardEstimate struct {
	// Duration is the task's total virtual time: startup + staging +
	// training (possibly truncated by the timeout) + validation.
	Duration float64
	// TrainBatches is the number of gradient steps that fit before the
	// timeout; the real (scaled-down) training run is budgeted to this
	// many batches so that timed-out architectures genuinely produce
	// partially trained models and poor rewards.
	TrainBatches int
	// TimedOut reports whether the training phase hit the timeout.
	TimedOut bool
}

// ColdTrainSlowdown is the throughput penalty of single-epoch,
// freshly launched training tasks relative to the long steady-state runs
// the device rates are calibrated on: a one-epoch reward estimation never
// amortizes TensorFlow's graph compilation, memory-pool growth, and input-
// pipeline warmup, so its effective training rate is a few times lower.
// Validation (a single well-batched forward sweep) runs at full rate.
const ColdTrainSlowdown = 4

// EvalTaskConfig parameterizes reward estimation.
type EvalTaskConfig struct {
	Device       Device
	TrainSamples int // samples per epoch after the fidelity subsample
	ValSamples   int
	BatchSize    int
	Epochs       int // paper: 1
	// StageSeconds is the time to load and preprocess the subsampled
	// training data (proportional to the fidelity fraction; the Combo
	// screens are multi-gigabyte on Theta's filesystem).
	StageSeconds float64
	Timeout      float64 // seconds; paper: 600
}

// PlanRewardEstimate computes the virtual duration and the training-batch
// budget of a reward-estimation task for an architecture with stats st.
func PlanRewardEstimate(st space.ArchStats, cfg EvalTaskConfig) RewardEstimate {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		panic("hpc: EvalTaskConfig needs positive BatchSize and Epochs")
	}
	batchesPerEpoch := (cfg.TrainSamples + cfg.BatchSize - 1) / cfg.BatchSize
	totalBatches := batchesPerEpoch * cfg.Epochs
	perBatch := ColdTrainSlowdown * float64(cfg.BatchSize) * TrainStepFLOPs * st.FwdFLOPs / cfg.Device.EffRate(st)
	valTime := cfg.Device.InferTime(st, cfg.ValSamples)

	var est RewardEstimate
	trainBudget := cfg.Timeout - cfg.Device.TaskStartup - cfg.StageSeconds - valTime
	fullTrain := float64(totalBatches) * perBatch
	if cfg.Timeout > 0 && fullTrain > trainBudget {
		est.TimedOut = true
		fit := 0
		if trainBudget > 0 && perBatch > 0 {
			fit = int(trainBudget / perBatch)
		}
		if fit > totalBatches {
			fit = totalBatches
		}
		est.TrainBatches = fit
		est.Duration = cfg.Timeout
		return est
	}
	est.TrainBatches = totalBatches
	est.Duration = cfg.Device.TaskStartup + cfg.StageSeconds + fullTrain + valTime
	return est
}
