package train

import (
	"testing"

	"nasgo/internal/data"
	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
)

// skipSlow marks a tier-2 real-training test: skipped by `go test -short`
// so the fast gate covers only the pure unit tests here.
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("tier-2 real-training test skipped in -short")
	}
}

// tinyComboModel builds a small multi-input regression net for the scaled
// Combo problem.
func tinyComboModel(r *rng.Rand, dims []int, hidden int) *nn.Model {
	b := nn.NewModelBuilder()
	var heads []int
	for _, d := range dims {
		in := b.Input()
		heads = append(heads, b.Layer(in, nn.NewDense(r, d, hidden, nn.ActReLU)))
	}
	cat := b.Concat(heads...)
	h := b.Layer(cat, nn.NewDense(r, hidden*len(dims), hidden, nn.ActReLU))
	out := b.Layer(h, nn.NewDense(r, hidden, 1, nn.ActLinear))
	return b.Build(out)
}

func TestFitImprovesR2OnCombo(t *testing.T) {
	skipSlow(t)
	// The generalization regime matters here: the miniature 800-sample
	// configuration this test originally used predates the harder Combo
	// response surface (even cos interaction terms at evenScale 0.6) and a
	// small MLP now overfits it — training loss reaches 4e-4 while
	// validation R² goes negative. Train at the candle-scale sample count
	// with the reward-estimation learning rate, where validation R² lands
	// in the paper's 0.3–0.6 reward band.
	trainDS, valDS := data.GenCombo(data.ComboConfig{Seed: 1, NTrain: 4800, NVal: 400})
	r := rng.New(2)
	m := tinyComboModel(r, trainDS.InputDims(), 32)
	before := Evaluate(m, valDS)
	res := Fit(m, trainDS, Config{Epochs: 3, BatchSize: 32, Optimizer: optim.NewAdam(0.005), Rand: r})
	after := Evaluate(m, valDS)
	if after <= before {
		t.Fatalf("training did not improve R2: before %g after %g", before, after)
	}
	if after < 0.25 {
		t.Fatalf("R2 after training too low: %g", after)
	}
	if res.TimedOut {
		t.Fatal("unexpected timeout")
	}
	if len(res.EpochLosses) != 3 {
		t.Fatalf("epoch losses = %d", len(res.EpochLosses))
	}
	// Loss must broadly decrease.
	if res.EpochLosses[len(res.EpochLosses)-1] >= res.EpochLosses[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLosses)
	}
}

func TestFitClassificationNT3(t *testing.T) {
	skipSlow(t)
	trainDS, valDS := data.GenNT3(data.NT3Config{Seed: 3, NTrain: 200, NVal: 60, InputDim: 120})
	r := rng.New(4)
	b := nn.NewModelBuilder()
	in := b.Input()
	seq := b.Layer(in, nn.Reshape1D{})
	conv := b.Layer(seq, nn.NewConv1D(r, 8, 1, 8, 1, nn.ActReLU))
	pool := b.Layer(conv, nn.NewMaxPool1D(4, 0))
	flat := b.Layer(pool, &nn.Flatten{})
	flatDim := ((120 - 8 + 1) / 4) * 8
	h := b.Layer(flat, nn.NewDense(r, flatDim, 16, nn.ActReLU))
	out := b.Layer(h, nn.NewDense(r, 16, 2, nn.ActLinear))
	m := b.Build(out)

	Fit(m, trainDS, Config{Epochs: 15, BatchSize: 20, Rand: r})
	acc := Evaluate(m, valDS)
	if acc < 0.7 {
		t.Fatalf("conv net accuracy %g, want >= 0.7 on motif data", acc)
	}
}

func TestFitBatchBudgetStops(t *testing.T) {
	skipSlow(t)
	trainDS, _ := data.GenCombo(data.ComboConfig{Seed: 5, NTrain: 256, NVal: 32, CellDim: 10, DrugDim: 10})
	r := rng.New(6)
	m := tinyComboModel(r, trainDS.InputDims(), 8)
	res := Fit(m, trainDS, Config{Epochs: 100, BatchSize: 32, MaxBatches: 5, Rand: r})
	if !res.TimedOut {
		t.Fatal("expected TimedOut")
	}
	if res.Batches != 5 {
		t.Fatalf("Batches = %d, want 5", res.Batches)
	}
}

func TestFitDeterministic(t *testing.T) {
	skipSlow(t)
	run := func() float64 {
		trainDS, valDS := data.GenCombo(data.ComboConfig{Seed: 7, NTrain: 128, NVal: 32, CellDim: 8, DrugDim: 8})
		r := rng.New(8)
		m := tinyComboModel(r, trainDS.InputDims(), 8)
		Fit(m, trainDS, Config{Epochs: 3, BatchSize: 32, Rand: r})
		return Evaluate(m, valDS)
	}
	if run() != run() {
		t.Fatal("Fit not deterministic under identical seeds")
	}
}

func TestFitCustomOptimizer(t *testing.T) {
	skipSlow(t)
	trainDS, _ := data.GenCombo(data.ComboConfig{Seed: 9, NTrain: 64, NVal: 16, CellDim: 6, DrugDim: 6})
	r := rng.New(10)
	m := tinyComboModel(r, trainDS.InputDims(), 4)
	res := Fit(m, trainDS, Config{Epochs: 2, BatchSize: 16, Optimizer: optim.NewAdam(0.01), Rand: r})
	if res.Batches != 8 {
		t.Fatalf("Batches = %d, want 8", res.Batches)
	}
}

func TestFitPanicsOnMissingRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	trainDS, _ := data.GenCombo(data.ComboConfig{Seed: 11, NTrain: 16, NVal: 4, CellDim: 4, DrugDim: 4})
	m := tinyComboModel(rng.New(1), trainDS.InputDims(), 4)
	Fit(m, trainDS, Config{Epochs: 1, BatchSize: 8})
}

func TestEvaluateChunking(t *testing.T) {
	// Evaluate must give identical results regardless of internal chunking;
	// exercise n > chunk boundary handling with a dataset of 1100 rows.
	trainDS, _ := data.GenCombo(data.ComboConfig{Seed: 12, NTrain: 1100, NVal: 8, CellDim: 5, DrugDim: 5})
	r := rng.New(13)
	m := tinyComboModel(r, trainDS.InputDims(), 4)
	full := Evaluate(m, trainDS)
	if full > 1 || full != full { // NaN check
		t.Fatalf("Evaluate returned invalid R2 %g", full)
	}
}
