// Package train drives supervised training of nn models on data.Datasets.
// It is the stand-in for Keras's fit/evaluate loop: mini-batch gradient
// descent with shuffling, a batch budget for the paper's 10-minute reward-
// estimation timeout (the hpc cost model converts the virtual time budget
// into a batch count), and metric evaluation (R² for the regression
// problems, accuracy for NT3).
package train

import (
	"fmt"

	"nasgo/internal/data"
	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// Config controls a Fit run.
type Config struct {
	Epochs    int
	BatchSize int
	// Optimizer defaults to Adam(0.001), the paper's setting.
	Optimizer optim.Optimizer
	// MaxBatches, when positive, stops training after that many gradient
	// steps regardless of epochs — the mechanism behind the reward-
	// estimation timeout. Zero means no budget.
	MaxBatches int
	// Rand drives shuffling (required).
	Rand *rng.Rand
	// NoArena disables the per-model workspace arena and batch-buffer reuse,
	// restoring the historical allocate-per-batch path. Results are bitwise
	// identical either way — the arena never reorders float ops — so the flag
	// exists only for differential tests and before/after benchmarks.
	NoArena bool
}

// Result summarizes a Fit run.
type Result struct {
	// EpochLosses holds the mean training loss of each completed epoch
	// (the partial epoch, if the batch budget interrupts one, included).
	EpochLosses []float64
	// Batches is the number of gradient steps taken.
	Batches int
	// TimedOut reports whether the batch budget stopped training early.
	TimedOut bool
}

// Fit trains the model on ds according to cfg.
func Fit(m *nn.Model, ds *data.Dataset, cfg Config) Result {
	if cfg.Rand == nil {
		panic("train: Config.Rand is required")
	}
	if cfg.BatchSize <= 0 {
		panic("train: BatchSize must be positive")
	}
	if cfg.Epochs <= 0 {
		panic("train: Epochs must be positive")
	}
	opt := cfg.Optimizer
	if opt == nil {
		opt = optim.NewAdam(0.001)
	}
	n := ds.N()
	// The arena owns every per-batch buffer (activations, gradient temps,
	// loss gradient); it is recycled after the optimizer step consumed the
	// gradients, so a steady-state batch allocates nothing. The batch dataset
	// itself is one reused buffer refilled by GatherInto.
	var ar *tensor.Arena
	var batch *data.Dataset
	if !cfg.NoArena {
		ar = tensor.NewArena()
		m.SetArena(ar)
		defer m.SetArena(nil)
	}
	var res Result
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := cfg.Rand.Perm(n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			if cfg.NoArena {
				batch = ds.Gather(perm[lo:hi])
			} else {
				batch = ds.GatherInto(batch, perm[lo:hi])
			}
			m.ZeroGrad()
			out := m.Forward(batch.Inputs, true)
			var loss float64
			var grad *tensor.Tensor
			if batch.IsClassification() {
				loss, grad = nn.SoftmaxCrossEntropyArena(ar, out, batch.YCls)
			} else {
				loss, grad = nn.MSELossArena(ar, out, batch.YReg)
			}
			m.Backward(grad)
			opt.Step(m.Params())
			ar.Reset()
			epochLoss += loss
			batches++
			res.Batches++
			if cfg.MaxBatches > 0 && res.Batches >= cfg.MaxBatches {
				res.TimedOut = true
				res.EpochLosses = append(res.EpochLosses, epochLoss/float64(batches))
				return res
			}
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(batches))
	}
	return res
}

// Evaluate computes the benchmark metric of the model on ds: R² for
// regression (Combo, Uno) or classification accuracy (NT3). Large datasets
// are evaluated in chunks to bound memory; chunk buffers come from a
// workspace arena recycled between chunks.
func Evaluate(m *nn.Model, ds *data.Dataset) float64 {
	return evaluate(m, ds, tensor.NewArena())
}

// EvaluateNoArena is Evaluate on the historical allocate-per-chunk path,
// kept for differential tests and benchmarks; results are bitwise identical
// to Evaluate.
func EvaluateNoArena(m *nn.Model, ds *data.Dataset) float64 {
	return evaluate(m, ds, nil)
}

func evaluate(m *nn.Model, ds *data.Dataset, ar *tensor.Arena) float64 {
	const chunk = 1024
	n := ds.N()
	if n == 0 {
		return 0
	}
	if ar != nil {
		m.SetArena(ar)
		defer m.SetArena(nil)
	}
	var part *data.Dataset
	var idx []int
	slice := func(lo, hi int) *data.Dataset {
		if ar == nil {
			return ds.Slice(lo, hi)
		}
		idx = idx[:0]
		for r := lo; r < hi; r++ {
			idx = append(idx, r)
		}
		part = ds.GatherInto(part, idx)
		return part
	}
	if ds.IsClassification() {
		correct := 0
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			p := slice(lo, hi)
			out := m.Predict(p.Inputs)
			pred := tensor.ArgmaxRows(out)
			for i, pr := range pred {
				if pr == p.YCls[i] {
					correct++
				}
			}
			ar.Reset()
		}
		return float64(correct) / float64(n)
	}
	preds := tensor.New(n, 1)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		p := slice(lo, hi)
		out := m.Predict(p.Inputs)
		if out.Shape[1] != 1 {
			panic(fmt.Sprintf("train: regression model output width %d, want 1", out.Shape[1]))
		}
		copy(preds.Data[lo:hi], out.Data)
		ar.Reset()
	}
	return nn.R2(preds, ds.YReg)
}
