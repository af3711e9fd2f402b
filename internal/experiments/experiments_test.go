package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"nasgo/internal/search"
)

// skipSlow marks a tier-2 test — one that runs real micro-scale searches — so `go test -short ./...` stays a fast gate
// (see CLAUDE.md "Test tiers").
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("tier-2 real-training test skipped in -short")
	}
}

// microScale keeps experiment tests cheap: tiny agent counts and a short
// horizon. Shapes are read off the committed QuickScale reports
// (bench_results/, EXPERIMENTS.md); these tests verify plumbing,
// memoization, and rendering.
var microScale = Scale{
	BaseAgents: 2, BaseWorkers: 2, Horizon: 1200,
	Replications: 2, TopK: 3, PostEpochs: 2, Seed: 7,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper"} {
		if _, err := ScaleByName(name); err != nil {
			t.Fatalf("ScaleByName(%s): %v", name, err)
		}
	}
	if _, err := ScaleByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// TestFig4AndMemoization checks memoization from an empty memo. It is the
// only test that resets it: the tests after it share the searches the
// earlier ones ran, as one nas-bench -exp all process does.
func TestFig4AndMemoization(t *testing.T) {
	skipSlow(t)
	ResetCache()
	r1 := Fig4("Combo", microScale)
	if len(r1.Runs) != 3 {
		t.Fatalf("runs = %d", len(r1.Runs))
	}
	// Second call returns the identical memoized logs.
	r2 := Fig4("Combo", microScale)
	for i := range r1.Runs {
		if r1.Runs[i].Log != r2.Runs[i].Log {
			t.Fatal("memoization failed: logs differ across calls")
		}
	}
	out := r1.Render()
	if !strings.Contains(out, "A3C") || !strings.Contains(out, "RDM") {
		t.Fatalf("render missing strategies:\n%s", out)
	}
}

func TestFig5SharesFig4Runs(t *testing.T) {
	skipSlow(t)
	f4 := Fig4("Combo", microScale)
	f5 := Fig5("Combo", microScale)
	if f4.Runs[0].Log != f5.Runs[0].Log {
		t.Fatal("Fig5 re-ran Fig4's searches")
	}
	u := f5.MeanUtilization(search.RDM)
	if u <= 0 || u > 1 {
		t.Fatalf("mean utilization %g out of (0,1]", u)
	}
}

func TestFig9ScalingConfigs(t *testing.T) {
	skipSlow(t)
	r := Fig9(microScale)
	if len(r.Runs) != 5 {
		t.Fatalf("runs = %d, want 5", len(r.Runs))
	}
	if r.Runs[4].Agents != 4*microScale.BaseAgents || r.Runs[4].Workers != microScale.BaseWorkers {
		t.Fatalf("1024-a config wrong: %+v", r.Runs[4])
	}
	if r.Runs[2].Agents != microScale.BaseAgents || r.Runs[2].Workers != 4*microScale.BaseWorkers {
		t.Fatalf("1024-w config wrong: %+v", r.Runs[2])
	}
	out := r.Render()
	for _, label := range []string{"256", "512-w", "1024-w", "512-a", "1024-a"} {
		if !strings.Contains(out, label) {
			t.Fatalf("render missing %s", label)
		}
	}
}

func TestFig11FidelitySweep(t *testing.T) {
	skipSlow(t)
	r := Fig11(microScale)
	if len(r.Logs) != 4 {
		t.Fatalf("logs = %d", len(r.Logs))
	}
	// Higher fidelity can only increase (or equal) the timeout fraction.
	if r.TimeoutFraction(3) < r.TimeoutFraction(0) {
		t.Fatalf("timeout fraction decreased with fidelity: %g -> %g",
			r.TimeoutFraction(0), r.TimeoutFraction(3))
	}
}

func TestFig13Bands(t *testing.T) {
	skipSlow(t)
	r := Fig13(microScale)
	if len(r.Logs) != microScale.Replications {
		t.Fatalf("replications = %d", len(r.Logs))
	}
	for i := range r.Grid {
		if r.Bands[0][i] > r.Bands[1][i] || r.Bands[1][i] > r.Bands[2][i] {
			t.Fatal("quantile bands out of order")
		}
	}
}

func TestTable1(t *testing.T) {
	skipSlow(t)
	r := Table1(microScale)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	combo := r.Rows[0]
	if combo.Bench != "Combo" || combo.BaselineParams != 13772001 {
		t.Fatalf("Combo row = %+v", combo)
	}
	if combo.BestParams <= 0 {
		t.Fatal("missing best params")
	}
	out := r.Render()
	if !strings.Contains(out, "manually designed") || !strings.Contains(out, "A3C-best") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRenderDispatch(t *testing.T) {
	skipSlow(t)
	// Two ids whose searches the tests above have already memoised: dispatch
	// is one loop over the registry (TestRegistry), and the result
	// constructors have their own tests above and below.
	for _, id := range []string{"fig4", "fig13"} {
		out, err := Render(id, microScale)
		if err != nil {
			t.Fatalf("Render(%s): %v", id, err)
		}
		if len(out) == 0 {
			t.Fatalf("Render(%s) empty", id)
		}
	}
}

func TestAblationCacheScope(t *testing.T) {
	skipSlow(t)
	r := AblationCacheScope(microScale)
	if len(r.Variants) != 2 {
		t.Fatalf("variants = %d", len(r.Variants))
	}
	out := r.Render()
	if !strings.Contains(out, "per-agent") || !strings.Contains(out, "global") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFaultsExperiment(t *testing.T) {
	skipSlow(t)
	r := Faults(microScale)
	if len(r.Runs) != len(FaultLevels)*len(Strategies) {
		t.Fatalf("runs = %d, want %d", len(r.Runs), len(FaultLevels)*len(Strategies))
	}
	// The zero-fault arm shares the memoized Fig 4/5 runs and is clean.
	f4 := Fig4("Combo", microScale)
	if r.Run(search.A3C, "none") != f4.Runs[0].Log {
		t.Fatal("zero-fault arm re-ran the Fig 4 search")
	}
	if log := r.Run(search.A3C, "none"); log.NodeFailures != 0 || log.Retries != 0 {
		t.Fatalf("zero-fault arm saw faults: %d failures, %d retries", log.NodeFailures, log.Retries)
	}
	// The high-fault arms really get hit.
	for _, strat := range Strategies {
		if r.Run(strat, "high").NodeFailures == 0 {
			t.Fatalf("%s high-fault arm saw no node failures", strat)
		}
	}
	out := r.Render()
	for _, want := range []string{"none", "high", "A3C", "A2C", "node-fail", "utilization lost"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRestartExperiment(t *testing.T) {
	skipSlow(t)
	r := Restart(microScale)
	if !r.Identical {
		t.Fatal("chained run's log is not bit-identical to the uninterrupted run")
	}
	if r.Allocations < 3 {
		t.Fatalf("chain used %d allocations, want >= 3", r.Allocations)
	}
	if len(r.CheckpointBytes) != r.Allocations-1 {
		t.Fatalf("%d checkpoints for %d allocations", len(r.CheckpointBytes), r.Allocations)
	}
	// The uninterrupted arm shares the memoized Fig 4/5 run.
	f4 := Fig4("Combo", microScale)
	if r.Uninterrupted != f4.Runs[0].Log {
		t.Fatal("restart experiment re-ran the Fig 4 search")
	}
	out := r.Render()
	for _, want := range []string{"uninterrupted", "chained", "bit-identical", "YES"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRegistry pins the one list everything derives from: ids are unique
// and non-empty, Names() is registry order, an unknown id's error names a
// real id, and every committed bench_results/*.txt is named after a
// registry id — a report cannot outlive its experiment.
func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Fatalf("Names() has %d ids, registry %d", len(names), len(registry))
	}
	seen := map[string]bool{}
	for i, e := range registry {
		if e.id == "" || e.render == nil {
			t.Fatalf("registry[%d] = %q has an empty id or no renderer", i, e.id)
		}
		if seen[e.id] {
			t.Fatalf("registry lists %q twice", e.id)
		}
		seen[e.id] = true
		if names[i] != e.id {
			t.Fatalf("Names()[%d] = %q, registry order says %q", i, names[i], e.id)
		}
	}
	_, err := Render("fig99", microScale)
	if err == nil || !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), names[0]) {
		t.Fatalf("Render(fig99) error = %v, want one naming the bad id and a real one (%s)", err, names[0])
	}
	reports, err := filepath.Glob(filepath.Join("..", "..", "bench_results", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range reports {
		if id := strings.TrimSuffix(filepath.Base(path), ".txt"); !seen[id] {
			t.Errorf("%s is not the report of any registry id", path)
		}
	}
}
