package train

import (
	"math"
	"testing"

	"nasgo/internal/data"
	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// mixedComboModel exercises every DAG node kind the arena path touches:
// dense heads, an additive skip (kindAdd), concatenation (kindConcat), and
// dropout with its per-element RNG stream.
func mixedComboModel(r *rng.Rand, dims []int, hidden int) *nn.Model {
	b := nn.NewModelBuilder()
	var heads []int
	for _, d := range dims {
		in := b.Input()
		heads = append(heads, b.Layer(in, nn.NewDense(r, d, hidden, nn.ActReLU)))
	}
	skip := b.Add(heads[0], heads[len(heads)-1])
	cat := b.Concat(append(heads, skip)...)
	h := b.Layer(cat, nn.NewDense(r, hidden*(len(dims)+1), hidden, nn.ActTanh))
	h = b.Layer(h, nn.NewDropout(r, 0.25))
	out := b.Layer(h, nn.NewDense(r, hidden, 1, nn.ActLinear))
	return b.Build(out)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShortFitArenaBitIdentical pins the tentpole's zero-perturbation claim
// at the train level: Fit and Evaluate with the workspace arena must produce
// bitwise-identical parameters, losses, and metrics to the allocate-per-
// batch path. Fast tier: the models are miniature.
func TestShortFitArenaBitIdentical(t *testing.T) {
	trainDS, valDS := data.GenCombo(data.ComboConfig{Seed: 21, NTrain: 150, NVal: 40, CellDim: 9, DrugDim: 13})
	run := func(noArena bool) ([]float64, []float64, float64) {
		r := rng.New(22)
		m := mixedComboModel(r, trainDS.InputDims(), 8)
		// BatchSize 32 leaves a 150%32 partial final batch, exercising the
		// GatherInto reallocation path mid-run.
		res := Fit(m, trainDS, Config{Epochs: 3, BatchSize: 32, Optimizer: optim.NewAdam(0.004), Rand: r, NoArena: noArena})
		var metric float64
		if noArena {
			metric = EvaluateNoArena(m, valDS)
		} else {
			metric = Evaluate(m, valDS)
		}
		return m.Params().FlattenValues(), res.EpochLosses, metric
	}
	pOn, lossOn, mOn := run(false)
	pOff, lossOff, mOff := run(true)
	if !bitsEqual(pOn, pOff) {
		t.Fatal("arena on/off produced different trained parameters")
	}
	if !bitsEqual(lossOn, lossOff) {
		t.Fatalf("arena on/off produced different epoch losses: %v vs %v", lossOn, lossOff)
	}
	if math.Float64bits(mOn) != math.Float64bits(mOff) {
		t.Fatalf("arena on/off produced different metrics: %v vs %v", mOn, mOff)
	}
}

// TestShortFitArenaBitIdenticalConv covers the convolutional stack (Reshape,
// Conv1D, MaxPool, Flatten) and the classification loss/eval path.
func TestShortFitArenaBitIdenticalConv(t *testing.T) {
	trainDS, valDS := data.GenNT3(data.NT3Config{Seed: 23, NTrain: 48, NVal: 20, InputDim: 40})
	run := func(noArena bool) ([]float64, float64) {
		r := rng.New(24)
		b := nn.NewModelBuilder()
		in := b.Input()
		seq := b.Layer(in, nn.Reshape1D{})
		conv := b.Layer(seq, nn.NewConv1D(r, 5, 1, 4, 1, nn.ActReLU))
		pool := b.Layer(conv, nn.NewMaxPool1D(3, 0))
		flat := b.Layer(pool, &nn.Flatten{})
		flatDim := ((40 - 5 + 1) / 3) * 4
		h := b.Layer(flat, nn.NewDense(r, flatDim, 8, nn.ActSigmoid))
		out := b.Layer(h, nn.NewDense(r, 8, 2, nn.ActLinear))
		m := b.Build(out)
		Fit(m, trainDS, Config{Epochs: 2, BatchSize: 16, Rand: r, NoArena: noArena})
		var metric float64
		if noArena {
			metric = EvaluateNoArena(m, valDS)
		} else {
			metric = Evaluate(m, valDS)
		}
		return m.Params().FlattenValues(), metric
	}
	pOn, mOn := run(false)
	pOff, mOff := run(true)
	if !bitsEqual(pOn, pOff) {
		t.Fatal("arena on/off produced different trained conv parameters")
	}
	if math.Float64bits(mOn) != math.Float64bits(mOff) {
		t.Fatalf("arena on/off produced different accuracies: %v vs %v", mOn, mOff)
	}
}

// TestShortTrainStepAllocs is the allocation-regression gate: a steady-state
// Combo-scaled train step (candle dimensions, reward-estimation batch size)
// must stay at (near-)zero heap allocations once the arena and batch buffer
// are warm.
func TestShortTrainStepAllocs(t *testing.T) {
	// Combo at candle scale: cell 60, drug 120 descriptors, two drugs.
	trainDS, _ := data.GenCombo(data.ComboConfig{Seed: 25, NTrain: 128, NVal: 16})
	r := rng.New(26)
	m := tinyComboModel(r, trainDS.InputDims(), 32)
	opt := optim.NewAdam(0.005)
	ar := tensor.NewArena()
	m.SetArena(ar)
	defer m.SetArena(nil)

	const batchSize = 16
	idx := make([]int, batchSize)
	var batch *data.Dataset
	step := func(seed int) {
		for i := range idx {
			idx[i] = (seed + i*7) % trainDS.N()
		}
		batch = trainDS.GatherInto(batch, idx)
		m.ZeroGrad()
		out := m.Forward(batch.Inputs, true)
		_, grad := nn.MSELossArena(ar, out, batch.YReg)
		m.Backward(grad)
		opt.Step(m.Params())
		ar.Reset()
	}
	for i := 0; i < 3; i++ { // warm the arena, batch buffer, and Adam state
		step(i)
	}
	allocs := testing.AllocsPerRun(10, func() { step(4) })
	const ceiling = 2 // slack for runtime-internal noise; steady state is 0
	if allocs > ceiling {
		t.Fatalf("steady-state train step allocates %.1f objects/op, ceiling %d", allocs, ceiling)
	}
}
