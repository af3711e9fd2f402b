package evaluator

import (
	"math"
	"testing"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/hpc"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

func comboSetup(t *testing.T, cfg Config) (*hpc.Sim, *Evaluator, *space.Space) {
	t.Helper()
	sim := hpc.NewSim()
	service := balsam.NewService(sim, 4)
	bench := candle.NewCombo(candle.Config{Seed: 1})
	sp := space.NewComboSmall()
	return sim, New(sim, service, bench, sp, cfg), sp
}

// denseChoices returns an all-Dense(1000, relu) architecture (scaled to 62
// units at the default 1/16 unit scale — a real network, not a bottleneck).
func denseChoices(sp *space.Space) []int {
	choices := make([]int, sp.NumDecisions())
	for i := range choices {
		if _, ok := sp.Decision(i).Ops[0].(space.ConnectOp); !ok {
			choices[i] = 9
		}
	}
	return choices
}

func TestSubmitProducesResult(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{Seed: 1})
	var res *Result
	ev.Submit(0, denseChoices(sp), func(r *Result) { res = r })
	sim.RunAll()
	if res == nil {
		t.Fatal("no result delivered")
	}
	if res.Cached {
		t.Fatal("first evaluation marked cached")
	}
	if res.Params <= 0 {
		t.Fatal("missing paper-dims params")
	}
	if res.Duration <= hpc.KNL.TaskStartup {
		t.Fatalf("duration %g too small", res.Duration)
	}
	if math.IsNaN(res.Reward) || res.Reward > 1 {
		t.Fatalf("bad reward %g", res.Reward)
	}
	if res.FinishTime != res.Duration {
		t.Fatalf("finish time %g, want %g (idle pool)", res.FinishTime, res.Duration)
	}
}

func TestCacheHitSameAgent(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{Seed: 2})
	choices := denseChoices(sp)
	var first, second *Result
	ev.Submit(0, choices, func(r *Result) {
		first = r
		ev.Submit(0, choices, func(r2 *Result) { second = r2 })
	})
	sim.RunAll()
	if second == nil || !second.Cached {
		t.Fatal("second submission not served from cache")
	}
	if second.Reward != first.Reward {
		t.Fatal("cache returned a different reward")
	}
	if second.Duration != 0 {
		t.Fatalf("cached duration %g, want 0", second.Duration)
	}
	if ev.CacheHits != 1 {
		t.Fatalf("CacheHits = %d", ev.CacheHits)
	}
}

func TestCacheIsPerAgent(t *testing.T) {
	// The paper deliberately avoids a global cache so that agent-specific
	// random initialization yields independent reward samples.
	sim, ev, sp := comboSetup(t, Config{Seed: 3})
	choices := denseChoices(sp)
	var r0, r1 *Result
	ev.Submit(0, choices, func(r *Result) { r0 = r })
	ev.Submit(1, choices, func(r *Result) { r1 = r })
	sim.RunAll()
	if r0.Cached || r1.Cached {
		t.Fatal("cross-agent cache hit — cache must be agent-local")
	}
	if r0.Reward == r1.Reward {
		t.Fatal("different agents got identical rewards — agent-specific initialization missing")
	}
}

func TestDeterministicRewards(t *testing.T) {
	run := func() float64 {
		sim, ev, sp := comboSetup(t, Config{Seed: 4})
		var res *Result
		ev.Submit(0, denseChoices(sp), func(r *Result) { res = r })
		sim.RunAll()
		return res.Reward
	}
	if run() != run() {
		t.Fatal("reward not deterministic under equal seeds")
	}
}

func TestIdentityArchScoresWorseThanDense(t *testing.T) {
	// An all-Identity architecture (inputs straight to a linear head,
	// barely trained) must score below a trained all-Dense architecture —
	// the minimum requirement for rewards to carry architectural signal.
	sim, ev, sp := comboSetup(t, Config{Seed: 5})
	var dense, ident *Result
	ev.Submit(0, denseChoices(sp), func(r *Result) { dense = r })
	ev.Submit(0, make([]int, sp.NumDecisions()), func(r *Result) { ident = r })
	sim.RunAll()
	if dense.Reward <= ident.Reward {
		t.Fatalf("dense reward %.3f <= identity reward %.3f", dense.Reward, ident.Reward)
	}
}

func TestFidelityChangesDuration(t *testing.T) {
	// Higher training fraction → longer virtual duration (Fig 11 setup).
	durationAt := func(f float64) float64 {
		sim, ev, sp := comboSetup(t, Config{Seed: 6, Fidelity: f})
		var res *Result
		ev.Submit(0, denseChoices(sp), func(r *Result) { res = r })
		sim.RunAll()
		return res.Duration
	}
	d10, d40 := durationAt(0.10), durationAt(0.40)
	if d40 <= d10 {
		t.Fatalf("40%% fidelity duration %g <= 10%% duration %g", d40, d10)
	}
}

func TestTimeoutTruncatesTraining(t *testing.T) {
	// A large-space architecture with many wide layers at 40% fidelity
	// must exceed the 10-minute virtual timeout.
	sim := hpc.NewSim()
	service := balsam.NewService(sim, 2)
	bench := candle.NewCombo(candle.Config{Seed: 7})
	sp := space.NewComboLarge()
	ev := New(sim, service, bench, sp, Config{Seed: 7, Fidelity: 0.40})
	// All Dense(1000, relu) everywhere; connects pick the all-inputs skip.
	choices := make([]int, sp.NumDecisions())
	for i := range choices {
		if _, ok := sp.Decision(i).Ops[0].(space.ConnectOp); ok {
			choices[i] = 4 // Inputs
		} else {
			choices[i] = 9 // Dense(1000, relu)
		}
	}
	var res *Result
	ev.Submit(0, choices, func(r *Result) { res = r })
	sim.RunAll()
	if !res.TimedOut {
		t.Fatalf("huge architecture at 40%% fidelity did not time out (duration %g)", res.Duration)
	}
	if res.Duration != 600 {
		t.Fatalf("timed-out duration %g, want 600", res.Duration)
	}
}

func TestTraceRecordsEverything(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{Seed: 9})
	choices := denseChoices(sp)
	ev.Submit(0, choices, func(r *Result) {
		ev.Submit(0, choices, func(*Result) {})
	})
	sim.RunAll()
	if len(ev.Trace) != 2 {
		t.Fatalf("trace length %d, want 2 (including cache hit)", len(ev.Trace))
	}
	if !ev.Trace[1].Cached {
		t.Fatal("second trace entry should be the cache hit")
	}
}

func TestGlobalCacheAblation(t *testing.T) {
	sim := hpc.NewSim()
	service := balsam.NewService(sim, 4)
	bench := candle.NewCombo(candle.Config{Seed: 20})
	sp := space.NewComboSmall()
	ev := New(sim, service, bench, sp, Config{Seed: 20, GlobalCache: true})
	choices := denseChoices(sp)
	var r0, r1 *Result
	ev.Submit(0, choices, func(r *Result) {
		r0 = r
		ev.Submit(1, choices, func(r2 *Result) { r1 = r2 })
	})
	sim.RunAll()
	if !r1.Cached {
		t.Fatal("global cache did not serve the second agent")
	}
	if r1.Reward != r0.Reward {
		t.Fatal("global cache returned a different reward")
	}
}

func TestSizeShapedReward(t *testing.T) {
	// With a size penalty, a big architecture's shaped reward must drop
	// by more than a small architecture's.
	run := func(sizeWeight float64) (big, small float64) {
		sim := hpc.NewSim()
		service := balsam.NewService(sim, 4)
		bench := candle.NewCombo(candle.Config{Seed: 21})
		sp := space.NewComboSmall()
		ev := New(sim, service, bench, sp, Config{Seed: 21, SizeWeight: sizeWeight})
		bigChoices := make([]int, sp.NumDecisions())
		for i := range bigChoices {
			if _, ok := sp.Decision(i).Ops[0].(space.ConnectOp); !ok {
				bigChoices[i] = 9 // Dense(1000, relu)
			}
		}
		var rb, rs *Result
		ev.Submit(0, bigChoices, func(r *Result) { rb = r })
		ev.Submit(0, make([]int, sp.NumDecisions()), func(r *Result) { rs = r })
		sim.RunAll()
		return rb.Reward, rs.Reward
	}
	big0, small0 := run(0)
	big1, small1 := run(0.2)
	dropBig := big0 - big1
	dropSmall := small0 - small1
	if dropBig <= dropSmall {
		t.Fatalf("size penalty hit small arch harder: big drop %.3f, small drop %.3f", dropBig, dropSmall)
	}
	if dropBig <= 0 {
		t.Fatal("size penalty had no effect on the big architecture")
	}
}

func TestNT3Evaluation(t *testing.T) {
	sim := hpc.NewSim()
	service := balsam.NewService(sim, 2)
	bench := candle.NewNT3(candle.Config{Seed: 10})
	sp := space.NewNT3Small()
	ev := New(sim, service, bench, sp, Config{Seed: 10})
	r := rng.New(1)
	var res *Result
	ev.Submit(0, sp.RandomChoices(r), func(rr *Result) { res = rr })
	sim.RunAll()
	if res == nil || res.Reward < 0 || res.Reward > 1 {
		t.Fatalf("NT3 accuracy reward out of range: %+v", res)
	}
}

// constSource serves one metric for every architecture.
type constSource struct{}

func (constSource) Metric(string) (float64, bool) { return 0.5, true }

// TestShortCacheHitAllocatesNoKey: a cache hit looks its key up from a stack
// buffer and reads the stored result's, so a table-served hit allocates 2
// times, the result's copy and its delivery closure; building the key string
// first made it 3.
func TestShortCacheHitAllocatesNoKey(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{BenchSeed: 9, Workers: 1})
	ev.SetRewardSource(constSource{})
	choices := denseChoices(sp)
	done := func(*Result) {}
	ev.Submit(0, choices, done)
	sim.RunAll()
	got := testing.AllocsPerRun(100, func() {
		ev.Submit(0, choices, done)
		sim.RunAll()
	})
	if got > 2 {
		t.Fatalf("a cache hit allocated %v times, want <= 2", got)
	}
	if ev.CacheHits < 100 {
		t.Fatalf("%d cache hits, want every resubmission to hit", ev.CacheHits)
	}
}
