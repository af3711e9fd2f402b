package nasbench

import (
	"fmt"
	"runtime"
	"testing"

	"nasgo/internal/evaluator"
	"nasgo/internal/rng"
	"nasgo/internal/search"
)

// TestShortReplayMallocsPerSearch: a table-served search builds nothing it
// does not read. Warm (every combo-micro architecture already compiled at
// both dims), one search at the tournament's shape makes 1,258 mallocs with
// RDM and 935 with EVO, against 2,047 and 1,440 when every submission
// recomputed its stats and input dims, allocated its memo and cache keys to
// look them up, copied an event into an absent recorder, and built a future,
// a reward closure and a training stream for a looked-up reward.
func TestShortReplayMallocsPerSearch(t *testing.T) {
	bench, sp := testBench(), ComboMicro()
	for i := 0; i < int(sp.Size()); i++ {
		choices := sp.ChoicesAt(i)
		sp.Compile(choices, sp.PaperInputDims(), 1.0)
		sp.Compile(choices, bench.Train.InputDims(), bench.UnitScale)
	}
	const searches = 4
	for strat, bound := range map[string]uint64{search.RDM: 1400, search.EVO: 1050} {
		cfg := search.Config{Strategy: strat, Agents: 2, WorkersPerAgent: 4, Horizon: 1800, Eval: testEval()}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := uint64(1); seed <= searches; seed++ {
			cfg.Seed = seed
			log, err := search.RunReplay(bench, sp, cfg, flatSource{})
			if err != nil || log.Evaluations < 40 {
				t.Fatalf("%s seed %d: err %v, log %+v", strat, seed, err, log)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.Mallocs - before.Mallocs) / searches
		t.Logf("%s: %d mallocs per warm search", strat, per)
		if per > bound {
			t.Errorf("%s: a warm replayed search made %d mallocs, want <= %d", strat, per, bound)
		}
	}
}

// TestShortBestResultIsTopOne: tournamentRun's one-pass best is TopK(1)[0],
// on hand-built logs with reward ties, finish-time ties, failed results and
// keys whose first result is a cache hit, on random logs of few rewards,
// times and keys, and on replayed searches whose rewards all tie.
func TestShortBestResultIsTopOne(t *testing.T) {
	res := func(key string, reward, finish float64, cached, failed bool) *evaluator.Result {
		return &evaluator.Result{Key: key, Reward: reward, FinishTime: finish, Cached: cached, Failed: failed}
	}
	logs := map[string][]*evaluator.Result{
		"empty":      nil,
		"all failed": {res("a", 0.9, 1, false, true), res("b", 0.8, 2, false, true)},
		"reward tie, earlier finish wins": {
			res("b", 0.5, 1, false, false), res("a", 0.7, 2, false, false), res("c", 0.7, 3, false, false)},
		"finish tie, smaller key wins": {
			res("c", 0.7, 2, false, false), res("b", 0.7, 2, false, false), res("d", 0.7, 2, false, false)},
		"failed never wins": {
			res("z", 0.1, 1, false, false), res("a", 0.9, 1, false, true), res("y", 0.1, 1, false, false)},
		"first result a cache hit": {
			res("b", 0.6, 5, true, false), res("a", 0.6, 5, true, false),
			res("b", 0.6, 9, false, false), res("a", 0.6, 9, false, false)},
		"later better reward": {
			res("a", 0.6, 1, true, false), res("a", 0.6, 3, false, false), res("b", 0.8, 4, true, false)},
	}
	r := rng.New(28)
	for n := 0; n < 200; n++ {
		var log []*evaluator.Result
		finish := 0.0
		for i := r.Intn(12); i > 0; i-- {
			finish += float64(r.Intn(2)) // completion order: FinishTime never decreases
			log = append(log, res(fmt.Sprint(r.Intn(4)), float64(r.Intn(3))/4, finish, r.Intn(3) == 0, r.Intn(4) == 0))
		}
		logs[fmt.Sprintf("random %d", n)] = log
	}
	for _, strat := range []string{search.RDM, search.EVO} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := search.Config{Strategy: strat, Agents: 2, WorkersPerAgent: 4, Horizon: 1800, Seed: seed, Eval: testEval()}
			l, err := search.RunReplay(testBench(), ComboMicro(), cfg, flatSource{})
			if err != nil {
				t.Fatal(err)
			}
			logs[fmt.Sprintf("%s seed %d", strat, seed)] = l.Results
		}
	}
	for name, results := range logs {
		var want *evaluator.Result
		if top := (&search.Log{Results: results}).TopK(1); len(top) > 0 {
			want = top[0]
		}
		if got := bestResult(results); got != want {
			t.Errorf("%s: bestResult = %+v, TopK(1) = %+v", name, got, want)
		}
	}
}

// TestShortAppendHashIsHash: the cache looks keys up by AppendHash and stores
// them by Hash; over every combo-micro architecture the two are one key.
func TestShortAppendHashIsHash(t *testing.T) {
	sp := ComboMicro()
	for i := 0; i < int(sp.Size()); i++ {
		choices := sp.ChoicesAt(i)
		if h, a := sp.Hash(choices), string(sp.AppendHash(nil, choices)); h != a {
			t.Fatalf("architecture %d: Hash %q, AppendHash %q", i, h, a)
		}
	}
}
