package search

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"nasgo/internal/analytics"
	"nasgo/internal/candle"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// runTraced runs cfg with a fresh recorder attached and returns the log
// plus the recorded event stream.
func runTraced(t *testing.T, cfg Config, benchSeed uint64) (*Log, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder(0)
	log, err := RunTraced(candle.NewCombo(candle.Config{Seed: benchSeed}), space.NewComboSmall(), cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() > 0 {
		t.Fatalf("trace ring overflowed: %d events dropped", rec.Dropped())
	}
	return log, rec.Events()
}

// diffEvents fails with the first diverging event of two traces.
func diffEvents(t *testing.T, what string, a, b []trace.Event) {
	t.Helper()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at event %d:\n  a: %+v\n  b: %+v", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", what, len(a), len(b))
	}
}

// forEachProcs runs body as subtests under GOMAXPROCS 1 and 4. The configs
// leave Eval.Workers at 0 (= GOMAXPROCS), so the first is the serial
// evaluator and the second the pooled one whatever the host's core count.
func forEachProcs(t *testing.T, body func(*testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			body(t)
		})
	}
}

// TestShortTraceViewsMatchLog pins the analytics trace views to the live
// log: the utilization series and reward trajectory recomputed from the
// recorded events must equal the values the running service produced.
func TestShortTraceViewsMatchLog(t *testing.T) {
	cfg := equivCfg(A3C, 92)
	log, events := runTraced(t, cfg, 92)

	nodes := cfg.Agents * cfg.WorkersPerAgent
	fromTrace := analytics.UtilizationSeriesFromTrace(events, nodes, 60)
	if len(fromTrace) != len(log.Utilization) {
		t.Fatalf("utilization view: %d buckets, log has %d", len(fromTrace), len(log.Utilization))
	}
	for i := range fromTrace {
		if fromTrace[i] != log.Utilization[i] {
			t.Fatalf("utilization bucket %d: view %g, log %g", i, fromTrace[i], log.Utilization[i])
		}
	}

	// TrajectoryPoint's JSON form is NaN/Inf-safe, so byte equality of the
	// renderings is an exact comparison that still handles empty buckets.
	want := analytics.Trajectory(log.Results, 60, log.EndTime)
	got := analytics.TrajectoryFromTrace(events, 60, log.EndTime)
	wantJS, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJS, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	diffJSON(t, "trajectory view", wantJS, gotJS)
}
