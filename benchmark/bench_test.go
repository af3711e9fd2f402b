package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// listing names what is in a directory — the benchmark must leave the
// tree as it found it.
func listing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return strings.Join(names, "\n")
}

// gitStatus is the work tree's state, or "" where there is no git or no
// repository (an exported checkout).
func gitStatus() string {
	out, err := exec.Command("git", "-C", "..", "status", "--porcelain").Output()
	if err != nil {
		return ""
	}
	return string(out)
}

// TestSmoke runs the documented command at the smoke scale — both passes
// of every workload, each in its own child process — and holds the ledger
// to BENCHMARK.json: every workload, every metric exactly once with its
// unit and a sample count, every output digest verified, nothing left
// behind.
func TestSmoke(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	results := filepath.Join("..", "bench_results")
	beforeGit, beforeResults, beforeHere := gitStatus(), listing(t, results), listing(t, ".")

	out := filepath.Join(t.TempDir(), "ledger.json")
	cmd := exec.Command("go", "run", ".", "-smoke", "-traced", "-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run . -smoke -traced: %v\n%s", err, b)
	}
	l, err := loadLedger(out)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := len(l.Workloads), len(c.Workloads); got != want {
		t.Fatalf("ledger has %d workloads, BENCHMARK.json names %d", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	specOf := map[string]metricSpec{}
	for _, spec := range c.EndToEnd {
		specOf[spec.Name] = spec
	}
	emittedBy := map[string]int{}
	for i, w := range l.Workloads {
		if w.Name != c.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json names %q", i, w.Name, c.Workloads[i].Name)
		}
		for _, pass := range []struct {
			what string
			res  *result
		}{{"end-to-end", w.EndToEnd}, {"per-layer", w.PerLayer}} {
			if pass.res == nil {
				t.Fatalf("%s: no %s pass", w.Name, pass.what)
			}
			if pass.res.Failed != 0 || pass.res.Attempted == 0 {
				t.Errorf("%s %s: %d of %d operations failed: %v", w.Name, pass.what, pass.res.Failed, pass.res.Attempted, pass.res.Failures)
			}
			if len(pass.res.Digests) == 0 {
				t.Errorf("%s %s: no output digest was verified", w.Name, pass.what)
			}
			seen := map[string]bool{}
			for _, m := range pass.res.Metrics {
				if seen[m.Name] {
					t.Errorf("%s: %s emitted twice", w.Name, m.Name)
				}
				seen[m.Name] = true
				if !name.MatchString(m.Name) || len(m.Name) > 64 {
					t.Errorf("%s: metric name %q", w.Name, m.Name)
				}
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.Name, m.Name)
				}
			}
		}

		// The end-to-end pass emits the metrics that mean something on the
		// workload, each one BENCHMARK.json names, and set-up always.
		for _, m := range w.EndToEnd.Metrics {
			spec, ok := specOf[m.Name]
			switch {
			case m.Name == "failed_frac":
				if m.Value != 0 {
					t.Errorf("%s: failed_frac = %v, want 0", w.Name, m.Value)
				}
			case !ok:
				t.Errorf("%s: end-to-end metric %s is not in BENCHMARK.json", w.Name, m.Name)
			case m.Unit != spec.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, m.Unit, spec.Unit)
			case m.N < 1 || m.Value <= 0:
				t.Errorf("%s: %s = %v over %d samples", w.Name, m.Name, m.Value, m.N)
			default:
				emittedBy[m.Name]++
			}
		}
		if _, ok := w.EndToEnd.metric("failed_frac"); !ok {
			t.Errorf("%s: no failed_frac", w.Name)
		}
		// The contract line fills the rest from the operation time: never 0,
		// and worse in the metric's own direction when the operation slows.
		for _, spec := range c.EndToEnd {
			v, slower := standIn(spec, w.EndToEnd.OpS), standIn(spec, 2*w.EndToEnd.OpS)
			if v <= 0 || worseBy(spec, v, slower) <= 0 {
				t.Errorf("%s: stand-in for %s is %v at %v s per operation, %v at twice that", w.Name, spec.Name, v, w.EndToEnd.OpS, slower)
			}
		}
		// Every per-layer metric comes from every workload; a layer that did
		// no work reports 0 over 0 samples.
		for _, spec := range c.PerLayer {
			if m, ok := w.PerLayer.metric(spec.Name); !ok || m.Unit != spec.Unit {
				t.Errorf("%s: per-layer %s: emitted %v with unit %q, BENCHMARK.json says %q", w.Name, spec.Name, ok, m.Unit, spec.Unit)
			}
		}
	}
	for _, spec := range c.EndToEnd {
		if n := emittedBy[spec.Name]; n == 0 || (spec.Name == "setup_s" && n != len(l.Workloads)) {
			t.Errorf("%s is emitted by %d workloads", spec.Name, n)
		}
	}

	if got := listing(t, "."); got != beforeHere {
		t.Errorf("benchmark/ changed (work dir not removed?):\nbefore:\n%s\nafter:\n%s", beforeHere, got)
	}
	if got := listing(t, results); got != beforeResults {
		t.Errorf("bench_results/ changed:\nbefore:\n%s\nafter:\n%s", beforeResults, got)
	}
	if got := gitStatus(); got != beforeGit {
		t.Errorf("git status changed:\nbefore:\n%s\nafter:\n%s", beforeGit, got)
	}
}

// TestCompareVerdicts pins the -compare rules on hand-made rows.
func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "search_wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10}
	row := func(samples ...float64) Metric { return timing("m", "s", samples) }
	for _, tc := range []struct {
		what     string
		spec     metricSpec
		old, cur Metric
		want     string
	}{
		{"within the bound", lower, row(10, 10.1, 9.9), row(10.5, 10.4, 10.6), "unchanged"},
		{"slower by more than the bound", lower, row(10, 10.1, 9.9), row(11.5, 11.4, 11.6), "REGRESSION"},
		{"rate lower by more than the bound", higher, row(100, 101, 99), row(85, 86, 84), "REGRESSION"},
		{"faster by more than the bound", lower, row(10, 10.1, 9.9), row(8, 8.1, 7.9), "improved"},
		{"spread wider than the bound", lower, row(10, 12, 8, 11), row(10.2, 9, 11.5, 10), "unresolved"},
		{"wide spread and a worse median is not a regression", lower, row(10, 12, 8, 11), row(12.5, 11, 14, 12), "unresolved"},
		{"wide spread, yet every new sample wins", lower, row(10, 12, 9, 11), row(5, 6, 4.5, 5.5), "improved"},
		{"one sample a side, within the bound", setup, row(6), row(6.3), "unchanged"},
		{"one sample a side, beyond the bound, either way", setup, row(6), row(7.6), "unresolved"},
		{"one sample a side, beyond the bound, either way", setup, row(7.6), row(6), "unresolved"},
		{"set-up half as long again, but 20 ms", setup, row(0.04, 0.041, 0.039), row(0.06, 0.061, 0.059), "unchanged"},
		{"set-up worse by the share and by 0.25 s", setup, row(1, 1.01, 0.99), row(1.3, 1.31, 1.29), "REGRESSION"},
	} {
		if got := verdict(tc.spec, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.what, got, tc.want)
		}
	}

	c := &contract{
		EndToEnd: []metricSpec{lower},
		PerLayer: []metricSpec{{Name: "rl.update_allocs", Unit: "count", Better: "lower"}, {Name: "rl.update_ms", Unit: "ms", Better: "lower"}},
	}
	mk := func(wall float64, allocs float64, failed int) *ledger {
		return &ledger{Schema: ledgerSchema, Seed: 1, Scale: "full", Seconds: 30, Workloads: []ledgerWorkload{{
			Name:     "w",
			EndToEnd: &result{Attempted: 10, Failed: failed, Metrics: []Metric{timing("search_wall_s", "s", []float64{wall, wall * 1.01, wall * 0.99})}},
			PerLayer: &result{Attempted: 1, Metrics: []Metric{single("rl.update_allocs", "count", allocs), single("rl.update_ms", "ms", wall)}},
		}}}
	}
	otherSeed := mk(10, 8520, 0)
	otherSeed.Seed = 2
	for _, tc := range []struct {
		what       string
		old, cur   *ledger
		sameCommit bool
		want       int
	}{
		{"equal ledgers", mk(10, 8520, 0), mk(10, 8520, 0), true, 0},
		{"a changed count between two commits is reported, not failed", mk(10, 8520, 0), mk(10, 0, 0), false, 0},
		{"a changed count between two runs of one commit fails", mk(10, 8520, 0), mk(10, 8519, 0), true, 1},
		{"a layer timing that moved never fails", mk(10, 8520, 0), mk(10.5, 8520, 0), true, 0},
		{"a regression fails", mk(10, 8520, 0), mk(12, 8520, 0), false, 1},
		{"more failed operations fail", mk(10, 8520, 0), mk(10, 8520, 1), false, 1},
		{"ledgers of different seeds are refused", mk(10, 8520, 0), otherSeed, false, 2},
	} {
		if got := compareLedgers(c, tc.old, tc.cur, tc.sameCommit); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.what, got, tc.want)
		}
	}
}
