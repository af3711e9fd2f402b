package search

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"nasgo/internal/analytics"
	"nasgo/internal/candle"
	"nasgo/internal/fsim"
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

// chainWalltimeTraced is chainWalltime with one recorder following the
// whole allocation chain through its on-disk checkpoint files.
func chainWalltimeTraced(t *testing.T, cfg Config, benchSeed uint64) (*Log, []trace.Event) {
	t.Helper()
	dir := t.TempDir()
	sp := space.NewComboSmall()
	rec := trace.NewRecorder(0)
	log, ck, err := Allocate(candle.NewCombo(candle.Config{Seed: benchSeed}), sp, cfg, nil, rec)
	n := 1
	for err == nil && ck != nil {
		path := filepath.Join(dir, fmt.Sprintf("alloc-%03d.ckpt", n))
		if werr := ck.WriteFileFS(fsim.OS, path); werr != nil {
			t.Fatalf("write checkpoint: %v", werr)
		}
		loaded, lerr := LoadCheckpointFS(fsim.OS, path)
		if lerr != nil {
			t.Fatalf("load checkpoint: %v", lerr)
		}
		log, ck, err = Allocate(candle.NewCombo(candle.Config{Seed: benchSeed}), sp, Config{}, loaded, rec)
		n++
	}
	if err != nil {
		t.Fatalf("traced allocation chain: %v", err)
	}
	if n < 3 {
		t.Fatalf("walltime %g produced only %d allocations — chain too easy", cfg.Walltime, n)
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

// TestShortGoldenTraceDeterminism is the observability tentpole's
// acceptance test: the trace is as deterministic as the run it records.
// The same seed must reproduce the event stream bit-for-bit (equal SHA-256
// digests), and a walltime-chained run must record the same stream as the
// uninterrupted one once the checkpoint cut/resume marks — the only
// intended difference — are stripped. The config carries the aggressive
// fault model, so the golden stream spans every category of the taxonomy.
func TestShortGoldenTraceDeterminism(t *testing.T) {
	forEachProcs(t, testGoldenTraceDeterminism)
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

func testGoldenTraceDeterminism(t *testing.T) {
	cfg := equivCfg(A3C, 91)
	logA, evA := runTraced(t, cfg, 91)
	logB, evB := runTraced(t, cfg, 91)
	if len(evA) == 0 {
		t.Fatal("traced run recorded no events")
	}
	diffEvents(t, "same-seed repeat", evA, evB)
	if trace.Digest(evA) != trace.Digest(evB) {
		t.Fatal("identical event streams hash differently")
	}
	diffJSON(t, "same-seed repeat logs", logJSON(t, logA), logJSON(t, logB))

	// Every layer of the machine must appear in the golden stream.
	byCat := map[string]int{}
	for _, ev := range evA {
		byCat[ev.Cat]++
	}
	for _, cat := range []string{trace.CatSim, trace.CatFault, trace.CatBalsam,
		trace.CatEval, trace.CatPS, trace.CatSearch} {
		if byCat[cat] == 0 {
			t.Errorf("golden trace has no %s events", cat)
		}
	}
	// A plain run is one unbounded allocation: never cut, so no ckpt marks.
	if n := byCat[trace.CatCkpt]; n != 0 {
		t.Errorf("plain run recorded %d checkpoint cut/resume marks", n)
	}

	// Chained run: same stream modulo CatCkpt cut/resume marks.
	chained := cfg
	chained.Walltime = 217
	logC, evC := chainWalltimeTraced(t, chained, 91)
	logC.Config.Walltime = cfg.Walltime
	diffJSON(t, "chained logs", logJSON(t, logA), logJSON(t, logC))
	core := trace.WithoutCat(evC, trace.CatCkpt)
	if len(core) == len(evC) {
		t.Fatal("chained trace recorded no checkpoint cut/resume marks")
	}
	diffEvents(t, "chained vs uninterrupted", evA, core)
	if trace.Digest(core) != trace.Digest(evA) {
		t.Fatal("chained trace digest differs after stripping ckpt marks")
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

// TestDisabledTraceMatchesPlainService pins the no-perturbation invariant
// from both sides: Run (nil recorder) and RunTraced with a live recorder
// must produce byte-identical logs for every strategy — recording is a
// pure observer, and disabling it restores the pre-trace machine exactly.
func TestDisabledTraceMatchesPlainService(t *testing.T) {
	skipSlow(t)
	for _, c := range []struct {
		strategy string
		seed     uint64
	}{{A3C, 94}, {A2C, 95}, {RDM, 96}, {EVO, 97}} {
		c := c
		t.Run(c.strategy, func(t *testing.T) {
			cfg := equivCfg(c.strategy, c.seed)
			plain := Run(candle.NewCombo(candle.Config{Seed: c.seed}), space.NewComboSmall(), cfg)
			traced, events := runTraced(t, cfg, c.seed)
			if len(events) == 0 {
				t.Fatal("recorder attached but no events recorded")
			}
			diffJSON(t, c.strategy, logJSON(t, plain), logJSON(t, traced))
		})
	}
}
