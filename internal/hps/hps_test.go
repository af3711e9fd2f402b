package hps

import (
	"math"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// skipSlow marks a tier-2 real-training test: skipped by `go test -short`
// so the fast gate covers only the pure unit tests here.
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("tier-2 real-training test skipped in -short")
	}
}

// testSpace covers the ranges relevant to the scaled benchmarks.
var testSpace = SpaceDef{LRMin: 1e-4, LRMax: 3e-2, BatchMin: 8, BatchMax: 64, MaxEpochs: 16}

func objective(t *testing.T) *Objective {
	t.Helper()
	bench := candle.NewCombo(candle.Config{Seed: 1})
	// A modest fixed architecture: all Dense(500, relu).
	sp := space.NewComboSmall()
	choices := make([]int, sp.NumDecisions())
	for i := range choices {
		if _, ok := sp.Decision(i).Ops[0].(space.ConnectOp); !ok {
			choices[i] = 5 // Dense(500, relu)
		}
	}
	ir, err := sp.Compile(choices, bench.Train.InputDims(), bench.UnitScale)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the tuning problem for test speed.
	bench.Train = bench.Train.Slice(0, 600)
	bench.Val = bench.Val.Slice(0, 200)
	return &Objective{Bench: bench, IR: ir, Seed: 2}
}

func TestSampleWithinBounds(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		p := testSpace.sample(r, 4)
		if p.LR < testSpace.LRMin || p.LR > testSpace.LRMax {
			t.Fatalf("lr %g out of bounds", p.LR)
		}
		if p.BatchSize < testSpace.BatchMin || p.BatchSize > testSpace.BatchMax {
			t.Fatalf("batch %d out of bounds", p.BatchSize)
		}
		if p.BatchSize&(p.BatchSize-1) != 0 {
			t.Fatalf("batch %d not a power of two", p.BatchSize)
		}
	}
}

func TestRandomSearchFindsReasonableLR(t *testing.T) {
	skipSlow(t)
	o := objective(t)
	sd := SpaceDef{LRMin: 1e-5, LRMax: 0.05, BatchMin: 16, BatchMax: 32, MaxEpochs: 4}
	res := RandomSearch(o, sd, 6, 3)
	if res.Evaluations != 6 || len(res.Trials) != 6 {
		t.Fatalf("evaluations = %d trials = %d", res.Evaluations, len(res.Trials))
	}
	if math.IsInf(res.Best.Metric, -1) {
		t.Fatal("no best trial")
	}
	// The best trial should beat the worst clearly (lr range spans 4
	// orders of magnitude, so quality must vary).
	worst := math.Inf(1)
	for _, tr := range res.Trials {
		if tr.Metric < worst {
			worst = tr.Metric
		}
	}
	if res.Best.Metric <= worst {
		t.Fatal("no variation across configurations")
	}
}

func TestSuccessiveHalvingBudgets(t *testing.T) {
	skipSlow(t)
	o := objective(t)
	sd := SpaceDef{LRMin: 1e-4, LRMax: 0.03, BatchMin: 16, BatchMax: 32, MaxEpochs: 8}
	res := SuccessiveHalving(o, sd, 8, 2, 4)
	if len(res.Trials) == 0 {
		t.Fatal("no trials")
	}
	// Rounds shrink: count trials per epoch budget.
	perBudget := map[int]int{}
	for _, tr := range res.Trials {
		perBudget[tr.Params.Epochs]++
	}
	if perBudget[8] >= perBudget[2] && perBudget[2] > 0 {
		t.Fatalf("later rounds should have fewer configs: %v", perBudget)
	}
	// The final-budget survivors must include the best.
	if res.Best.Params.Epochs != 8 {
		t.Fatalf("best trial at budget %d, want the full budget 8", res.Best.Params.Epochs)
	}
}

func TestSuccessiveHalvingDeterministic(t *testing.T) {
	skipSlow(t)
	o := objective(t)
	sd := SpaceDef{LRMin: 1e-4, LRMax: 0.03, BatchMin: 16, BatchMax: 32, MaxEpochs: 4}
	a := SuccessiveHalving(o, sd, 4, 2, 5)
	b := SuccessiveHalving(o, sd, 4, 2, 5)
	if a.Best.Metric != b.Best.Metric || a.Best.Params != b.Best.Params {
		t.Fatal("successive halving not deterministic")
	}
}

func TestPanics(t *testing.T) {
	o := objective(t)
	for _, f := range []func(){
		func() { RandomSearch(o, testSpace, 0, 1) },
		func() { SuccessiveHalving(o, testSpace, 0, 2, 1) },
		func() { SuccessiveHalving(o, testSpace, 4, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}
