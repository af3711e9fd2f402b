// Package posttrain implements the paper's post-training stage (§5): the
// top architectures of a search, selected by estimated reward, are retrained
// for 20 epochs on the full training data (no timeout) and compared against
// the manually designed network on the paper's three ratios:
//
//   - accuracy ratio   R²/R²_b (or ACC/ACC_b),
//   - trainable parameter ratio  P_b/P (at paper dimensions),
//   - training time ratio        T_b/T (20 epochs on a K80 device model).
//
// Ratios > 1 mean the NAS-generated architecture beats the baseline, as in
// Figures 7, 8, 10, and 12 and Table 1.
package posttrain

import (
	"sort"

	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/hpc"
	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/train"
)

// Entry is one post-trained architecture.
type Entry struct {
	Rank      int
	Key       string
	Choices   []int
	EstReward float64 // search-time (low-fidelity) estimate
	Metric    float64 // metric after full post-training (scaled model)

	Params    int64   // trainable parameters at paper dimensions
	TrainTime float64 // seconds, 20 epochs on the K80 model at paper dims

	AccRatio    float64 // Metric / baseline Metric
	ParamsRatio float64 // baseline Params / Params
	TimeRatio   float64 // baseline TrainTime / TrainTime

	// Model holds the trained network when Config.KeepModels is set,
	// e.g. for saving the best one with modelio.
	Model *nn.Model
}

// Report is the outcome of post-training a search's top-k.
type Report struct {
	Bench string
	Space string

	BaselineMetric float64
	BaselineParams int64
	BaselineTime   float64

	Entries []Entry
}

// Config controls post-training.
type Config struct {
	// Epochs is the post-training epoch count (paper: 20).
	Epochs int
	// Seed drives weight initialization and shuffling.
	Seed uint64
	// KeepModels retains each entry's trained network in Entry.Model.
	KeepModels bool
}

// adamLR is the post-training Adam rate: the paper's Keras default of 0.001
// underfits the scaled problems in 20 epochs (see evaluator.Config.RealLR).
const adamLR = 0.003

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = candle.PostTrainEpochs
	}
	return c
}

// Run post-trains the given top results (as returned by search.Log.TopK)
// and the baseline, and computes the paper's three ratios for each.
func Run(bench *candle.Benchmark, sp *space.Space, top []*evaluator.Result, cfg Config) *Report {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed ^ 0x9057)

	rep := &Report{Bench: bench.Name, Space: sp.Name}

	// Baseline: real post-training at scaled dims for the metric,
	// analytic paper-dims stats for parameters and time.
	baseStats := bench.BaselinePaper.Stats()
	rep.BaselineParams = baseStats.Params
	rep.BaselineTime = hpc.K80.TrainTime(baseStats, bench.PaperTrainSamples, cfg.Epochs)
	baseModel := bench.Baseline.BuildModel(root.Split())
	train.Fit(baseModel, bench.Train, train.Config{
		Epochs: cfg.Epochs, BatchSize: realBatch(bench),
		Optimizer: optim.NewAdam(adamLR), Rand: root.Split(),
	})
	rep.BaselineMetric = train.Evaluate(baseModel, bench.Val)

	for rank, r := range top {
		paperIR, err := sp.Compile(r.Choices, sp.PaperInputDims(), 1.0)
		if err != nil {
			panic(err)
		}
		st := paperIR.Stats()
		scaledIR, err := sp.Compile(r.Choices, bench.Train.InputDims(), bench.UnitScale)
		if err != nil {
			panic(err)
		}
		model := scaledIR.BuildModel(root.Split())
		train.Fit(model, bench.Train, train.Config{
			Epochs: cfg.Epochs, BatchSize: realBatch(bench),
			Optimizer: optim.NewAdam(adamLR), Rand: root.Split(),
		})
		metric := train.Evaluate(model, bench.Val)
		tt := hpc.K80.TrainTime(st, bench.PaperTrainSamples, cfg.Epochs)
		e := Entry{
			Rank:      rank + 1,
			Key:       r.Key,
			Choices:   r.Choices,
			EstReward: r.Reward,
			Metric:    metric,
			Params:    st.Params,
			TrainTime: tt,
		}
		if cfg.KeepModels {
			e.Model = model
		}
		if rep.BaselineMetric != 0 {
			e.AccRatio = metric / rep.BaselineMetric
		}
		if st.Params > 0 {
			e.ParamsRatio = float64(rep.BaselineParams) / float64(st.Params)
		}
		if tt > 0 {
			e.TimeRatio = rep.BaselineTime / tt
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep
}

// Best returns the entry with the highest post-trained metric.
func (r *Report) Best() *Entry {
	if len(r.Entries) == 0 {
		return nil
	}
	best := &r.Entries[0]
	for i := range r.Entries {
		if r.Entries[i].Metric > best.Metric {
			best = &r.Entries[i]
		}
	}
	return best
}

// SortByMetric orders entries by post-trained metric, best first.
func (r *Report) SortByMetric() {
	sort.Slice(r.Entries, func(i, j int) bool {
		return r.Entries[i].Metric > r.Entries[j].Metric
	})
}

func realBatch(b *candle.Benchmark) int {
	if b.BatchSize > 32 {
		return 32
	}
	return b.BatchSize
}
