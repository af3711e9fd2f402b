package nasbench

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"nasgo/internal/hpc"
	"nasgo/internal/search"
)

// replayCfg is the differential-pin search configuration: small dimensions,
// the aggressive fault model of the search suite's equivalence tests (so
// retries, stragglers, and partial rounds are all inside the pinned
// surface), and the shared nano benchmark-mode eval config.
func replayCfg(strategy string, seed uint64) search.Config {
	return search.Config{
		Strategy:        strategy,
		Agents:          2,
		WorkersPerAgent: 2,
		Horizon:         900,
		Seed:            seed,
		Eval:            testEval(),
		Faults:          hpc.FaultModel{MTBF: 400, MTTR: 120, StragglerProb: 0.1, StragglerSlowdown: 2},
	}
}

func searchLogJSON(t *testing.T, l *search.Log) []byte {
	t.Helper()
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diffLogs fails at the first byte of divergence with context.
func diffLogs(t *testing.T, what string, live, replay []byte) {
	t.Helper()
	if bytes.Equal(live, replay) {
		return
	}
	n := len(live)
	if len(replay) < n {
		n = len(replay)
	}
	i := 0
	for i < n && live[i] == replay[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hiL, hiR := i+120, i+120
	if hiL > len(live) {
		hiL = len(live)
	}
	if hiR > len(replay) {
		hiR = len(replay)
	}
	t.Fatalf("%s: table replay diverges from the live run at byte %d\nlive:   …%s…\nreplay: …%s…",
		what, i, live[lo:hiL], replay[lo:hiR])
}

// TestShortTableReplayByteIdentical is the replay backend's acceptance bar:
// for all four strategies and Workers ∈ {1, 8}, a search that looks every
// reward up in the table produces a search.Log byte-identical (as JSON,
// with only Eval.Workers normalized) to the live run that trains every
// network — same rewards, same caches, same RNG streams, same virtual
// timeline, under an aggressive fault model. Byte equality is also the
// RNG-neutrality proof: a single extra or missing stream draw in the
// lookup path would shift every subsequent architecture sample.
func TestShortTableReplayByteIdentical(t *testing.T) {
	tbl, _ := buildNanoTable(t)
	sp := ComboNano()
	for _, strategy := range []string{search.A3C, search.A2C, search.RDM, search.EVO} {
		for _, workers := range []int{1, 8} {
			cfg := replayCfg(strategy, 0x9e0+uint64(workers))
			cfg.Eval.Workers = workers
			live := search.Run(testBench(), ComboNano(), cfg)
			replay, err := search.RunReplay(testBench(), sp, cfg, tbl)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", strategy, workers, err)
			}
			if replay.Evaluations == 0 {
				t.Fatalf("%s workers=%d: replay evaluated nothing", strategy, workers)
			}
			live.Config.Eval.Workers = 1
			replay.Config.Eval.Workers = 1
			name := strategy
			diffLogs(t, name, searchLogJSON(t, live), searchLogJSON(t, replay))
		}
	}
}

// TestShortRunReplayValidates pins the API contract: a replay run demands a
// reward source and benchmark mode.
func TestShortRunReplayValidates(t *testing.T) {
	if _, err := search.RunReplay(testBench(), ComboNano(), replayCfg(search.RDM, 1), nil); err == nil {
		t.Fatal("RunReplay accepted a nil reward source")
	}
	tbl, _ := buildNanoTable(t)
	cfg := replayCfg(search.RDM, 1)
	cfg.Eval.BenchSeed = 0
	defer func() {
		if recover() == nil {
			t.Fatal("replay without BenchSeed did not panic")
		}
	}()
	search.RunReplay(testBench(), ComboNano(), cfg, tbl)
}

// flatSource tabulates every architecture at one metric: enough to drive a
// replayed search without building a table.
type flatSource struct{}

func (flatSource) Metric(string) (float64, bool) { return 0.25, true }

// TestShortReplayGathersNoSubsample: a table-served search pays for what it
// serves. One warm combo-micro RDM search at the tournament's shape allocates
// under 1 MB — gathering the fidelity subsample at evaluator construction
// alone cost 1.2 MB of the 2.1 MB a search took before, and compiling every
// submission twice most of the rest (0.23 MB now).
func TestShortReplayGathersNoSubsample(t *testing.T) {
	bench, sp := testBench(), ComboMicro()
	cfg := search.Config{Strategy: search.RDM, Agents: 2, WorkersPerAgent: 4, Horizon: 1800, Eval: testEval()}
	var before, after runtime.MemStats
	for seed := uint64(1); seed <= 2; seed++ { // seed 1 warms the space's compile memo
		cfg.Seed = seed
		runtime.ReadMemStats(&before)
		log, err := search.RunReplay(bench, sp, cfg, flatSource{})
		runtime.ReadMemStats(&after)
		if err != nil || log.Evaluations < 40 {
			t.Fatalf("seed %d: err %v, log %+v", seed, err, log)
		}
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Fatalf("a warm replayed search allocated %d KB, want < 1024: something gathered a dataset or recompiled", spent>>10)
	}
}
