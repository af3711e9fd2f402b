package candle

import (
	"math"
	"testing"

	"nasgo/internal/data"
	"nasgo/internal/hpc"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/train"
)

// TestPaperParameterCounts pins the baselines against the paper's Table 1.
func TestPaperParameterCounts(t *testing.T) {
	combo := ComboBaselineIR(data.ComboCellDim, data.ComboDrugDim, 1000).Stats()
	if combo.Params != 13772001 {
		t.Errorf("Combo baseline params = %d, want 13772001 (Table 1)", combo.Params)
	}
	uno := UnoBaselineIR(data.UnoRNADim, data.UnoDoseDim, data.UnoDescDim, data.UnoFPDim, 1000).Stats()
	if uno.Params != 19274001 {
		t.Errorf("Uno baseline params = %d, want 19274001 (Table 1)", uno.Params)
	}
	// NT3 as described in §2.3 yields 154,922,918; the paper's Table 1
	// reports 96,777,878 — a known description/table inconsistency we
	// document in EXPERIMENTS.md. Pin our computed value so drift is
	// caught.
	nt3 := NT3BaselineIR(data.NT3InputDim, 128, 200, 20).Stats()
	if nt3.Params != 154922918 {
		t.Errorf("NT3 baseline params = %d, want 154922918 (from §2.3 description)", nt3.Params)
	}
}

// TestShortBaselineLiteralStats: the baselines carry the stats NewArchIR
// computed once, equal to what an IR built as a struct literal from the same
// specs derives, at paper and at scaled dims.
func TestShortBaselineLiteralStats(t *testing.T) {
	for _, ir := range []*space.ArchIR{
		ComboBaselineIR(data.ComboCellDim, data.ComboDrugDim, 1000),
		UnoBaselineIR(data.UnoRNADim, data.UnoDoseDim, data.UnoDescDim, data.UnoFPDim, 1000),
		NT3BaselineIR(data.NT3InputDim, 128, 200, 20),
		NewCombo(Config{Seed: 1}).Baseline,
		NewUno(Config{Seed: 1}).Baseline,
		NewNT3(Config{Seed: 1}).Baseline,
	} {
		lit := &space.ArchIR{SpaceName: ir.SpaceName, Specs: ir.Specs, Output: ir.Output}
		if lit.Stats() != ir.Stats() {
			t.Errorf("%s: literal %+v, constructed %+v", ir.SpaceName, lit.Stats(), ir.Stats())
		}
	}
}

// TestDeviceCalibration checks the machine models reproduce the paper's
// baseline training times: 2215.13 s on KNL and 705.26 s on a K80 for the
// manually designed Combo network (20 epochs over the full training data).
func TestDeviceCalibration(t *testing.T) {
	st := ComboBaselineIR(data.ComboCellDim, data.ComboDrugDim, 1000).Stats()
	knl := hpc.KNL.TrainTime(st, data.ComboNTrain, PostTrainEpochs)
	if math.Abs(knl-2215.13)/2215.13 > 0.01 {
		t.Errorf("Combo baseline KNL training time = %.2f s, want 2215.13 ±1%%", knl)
	}
	k80 := hpc.K80.TrainTime(st, data.ComboNTrain, PostTrainEpochs)
	if math.Abs(k80-705.26)/705.26 > 0.01 {
		t.Errorf("Combo baseline K80 training time = %.2f s, want 705.26 ±1%%", k80)
	}
}

// TestBaselineIRBuildable verifies scaled baselines instantiate and that
// analytic counts equal instantiated counts.
func TestBaselineIRBuildable(t *testing.T) {
	r := rng.New(1)
	for _, b := range []*Benchmark{
		NewCombo(Config{Seed: 1}),
		NewUno(Config{Seed: 1}),
		NewNT3(Config{Seed: 1}),
	} {
		m := b.Baseline.BuildModel(r.Split())
		if int64(m.Params().Count()) != b.Baseline.Stats().Params {
			t.Errorf("%s: scaled baseline analytic %d != model %d",
				b.Name, b.Baseline.Stats().Params, m.Params().Count())
		}
		if m.NumInputs() != len(b.Train.Inputs) {
			t.Errorf("%s: baseline inputs %d, dataset inputs %d",
				b.Name, m.NumInputs(), len(b.Train.Inputs))
		}
	}
}

// TestComboMirrorInBaseline verifies the shared drug submodel: unsharing it
// would add exactly the drug-chain parameters once more.
func TestComboMirrorInBaseline(t *testing.T) {
	shared := ComboBaselineIR(942, 3820, 1000).Stats().Params
	// Manually count the drug submodel: (3820+1)*1000 + 2*(1001*1000).
	drugChain := int64(3821*1000 + 2*1001*1000)
	unshared := int64(0)
	// Rebuild without sharing by summing all dense params.
	ir := ComboBaselineIR(942, 3820, 1000)
	for _, sp := range ir.Specs {
		if sp.Kind == 1 { // SpecDense
			in := ir.Specs[sp.Inputs[0]].OutDims[0]
			unshared += int64(in+1) * int64(sp.Units)
		}
	}
	if unshared-shared != drugChain {
		t.Errorf("sharing saves %d params, want %d", unshared-shared, drugChain)
	}
}

// TestBaselinesTrainOnSyntheticData runs each scaled baseline briefly and
// checks it beats a trivial predictor, i.e. the baselines and generators
// are mutually consistent.
func TestBaselinesTrainOnSyntheticData(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short")
	}
	for _, b := range []*Benchmark{NewCombo(Config{Seed: 2}), NewUno(Config{Seed: 2})} {
		r := rng.New(3)
		m := b.Baseline.BuildModel(r.Split())
		train.Fit(m, b.Train, train.Config{Epochs: 4, BatchSize: b.BatchSize, Rand: r.Split()})
		r2 := train.Evaluate(m, b.Val)
		if r2 < 0.2 {
			t.Errorf("%s baseline val R2 = %.3f after 4 epochs, want >= 0.2", b.Name, r2)
		}
	}
	b := NewNT3(Config{Seed: 2})
	r := rng.New(4)
	m := b.Baseline.BuildModel(r.Split())
	train.Fit(m, b.Train, train.Config{Epochs: 6, BatchSize: b.BatchSize, Rand: r.Split()})
	acc := train.Evaluate(m, b.Val)
	if acc < 0.7 {
		t.Errorf("NT3 baseline val ACC = %.3f after 6 epochs, want >= 0.7", acc)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Combo", "Uno", "NT3", "combo", "uno", "nt3"} {
		if _, err := ByName(name, Config{Seed: 1}); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("bogus", Config{}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestSpaceSelection(t *testing.T) {
	b := NewCombo(Config{Seed: 1})
	small, err := b.Space("small")
	if err != nil || small.Name != "combo-small" {
		t.Fatalf("Space(small) = %v, %v", small, err)
	}
	large, err := b.Space("large")
	if err != nil || large.Name != "combo-large" {
		t.Fatalf("Space(large) = %v, %v", large, err)
	}
	nt3 := NewNT3(Config{Seed: 1})
	if _, err := nt3.Space("large"); err == nil {
		t.Fatal("NT3 must reject a large space")
	}
}

func TestBenchmarkSettingsMatchPaper(t *testing.T) {
	combo := NewCombo(Config{Seed: 1})
	if combo.BatchSize != 256 || combo.RewardTrainFrac != 0.10 {
		t.Errorf("Combo settings: batch %d frac %g", combo.BatchSize, combo.RewardTrainFrac)
	}
	uno := NewUno(Config{Seed: 1})
	if uno.BatchSize != 32 || uno.RewardTrainFrac != 1.0 {
		t.Errorf("Uno settings: batch %d frac %g", uno.BatchSize, uno.RewardTrainFrac)
	}
	nt3 := NewNT3(Config{Seed: 1})
	if nt3.BatchSize != 20 || nt3.Metric != "ACC" {
		t.Errorf("NT3 settings: batch %d metric %s", nt3.BatchSize, nt3.Metric)
	}
}
