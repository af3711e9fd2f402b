package evaluator

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nasgo/internal/balsam"
	"nasgo/internal/hpc"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// variantChoices returns a valid architecture varied by k, so tests can
// submit a handful of distinct real networks.
func variantChoices(t *testing.T, sp *space.Space, k int) []int {
	t.Helper()
	choices := make([]int, sp.NumDecisions())
	for i := range choices {
		choices[i] = (i*7 + k) % len(sp.Decision(i).Ops)
	}
	if err := sp.CheckChoices(choices); err != nil {
		t.Fatalf("variantChoices(%d): %v", k, err)
	}
	return choices
}

// submitSchedule plays the same submission schedule — three distinct
// architectures across two agents plus one duplicate — into an evaluator
// and returns the results in delivery order.
func submitSchedule(t *testing.T, sim *hpc.Sim, ev *Evaluator, sp *space.Space) []*Result {
	t.Helper()
	var got []*Result
	collect := func(r *Result) { got = append(got, r) }
	ev.Submit(0, variantChoices(t, sp, 0), collect)
	ev.Submit(1, variantChoices(t, sp, 1), collect)
	ev.Submit(0, variantChoices(t, sp, 2), collect)
	ev.Submit(0, variantChoices(t, sp, 0), collect) // duplicate: cache hit
	sim.RunAll()
	return got
}

// TestPoolMatchesSerial is the tentpole's core invariant at the evaluator
// level: the worker pool at any width delivers results — and leaves behind
// evaluator state — identical to the serial machine's.
func TestPoolMatchesSerial(t *testing.T) {
	simS, evS, sp := comboSetup(t, Config{Seed: 11, Workers: 1})
	if evS.sem != nil {
		t.Fatal("Workers=1 built a pool semaphore — serial path not literal")
	}
	serial := submitSchedule(t, simS, evS, sp)

	for _, workers := range []int{2, 8} {
		simP, evP, _ := comboSetup(t, Config{Seed: 11, Workers: workers})
		if evP.sem == nil {
			t.Fatalf("Workers=%d did not enable the pool", workers)
		}
		pooled := submitSchedule(t, simP, evP, sp)
		if !reflect.DeepEqual(serial, pooled) {
			t.Fatalf("Workers=%d results differ from serial:\n%+v\nvs\n%+v", workers, serial, pooled)
		}
		if !reflect.DeepEqual(evS.CaptureState(), evP.CaptureState()) {
			t.Fatalf("Workers=%d captured state differs from serial", workers)
		}
		if n := cachedIn(evP); n != 1 {
			t.Fatalf("Workers=%d: %d cached results in Trace, want 1", workers, n)
		}
	}
}

// TestPoolCaptureDrainsFutures pins the future/checkpoint interaction: a
// capture cut landing while every submitted training is still in flight on
// the pool must join them all first, yielding the exact snapshot the serial
// machine produces — never a half-trained future — and the machine must
// continue identically afterwards.
func TestPoolCaptureDrainsFutures(t *testing.T) {
	simS, evS, sp := comboSetup(t, Config{Seed: 12, Workers: 1})
	simP, evP, _ := comboSetup(t, Config{Seed: 12, Workers: 8})
	var gotS, gotP []*Result
	for k := 0; k < 3; k++ {
		choices := variantChoices(t, sp, k)
		evS.Submit(0, choices, func(r *Result) { gotS = append(gotS, r) })
		evP.Submit(0, choices, func(r *Result) { gotP = append(gotP, r) })
	}
	// No simulation step has run: on the pool machine all three futures are
	// (potentially) still training here.
	if evP.InflightCount() != 3 {
		t.Fatalf("InflightCount = %d, want 3", evP.InflightCount())
	}
	stS, stP := evS.CaptureState(), evP.CaptureState()
	if !reflect.DeepEqual(stS, stP) {
		t.Fatalf("mid-flight capture differs from serial:\n%+v\nvs\n%+v", stS, stP)
	}
	for _, rec := range stP.Inflight {
		if !isFinite(rec.Result.Reward) {
			t.Fatalf("captured in-flight result has unresolved reward %g", rec.Result.Reward)
		}
	}
	simS.RunAll()
	simP.RunAll()
	if !reflect.DeepEqual(gotS, gotP) {
		t.Fatalf("post-capture completions differ:\n%+v\nvs\n%+v", gotS, gotP)
	}
}

// TestPoolDivergedDuplicateIsMiss pins the optimistic-insert guard: a
// duplicate submission of an architecture whose training diverged (NaN
// reward via the NaN SizeWeight) must join the pending future, observe the
// eviction, and run a fresh task — the serial machine never cached it.
func TestPoolDivergedDuplicateIsMiss(t *testing.T) {
	for _, workers := range []int{1, 8} {
		sim, ev, sp := comboSetup(t, Config{Seed: 13, Workers: workers, SizeWeight: math.NaN()})
		choices := denseChoices(sp)
		var got []*Result
		collect := func(r *Result) { got = append(got, r) }
		id1 := ev.Submit(0, choices, collect)
		id2 := ev.Submit(0, choices, collect)
		if id1 == 0 || id2 == 0 || id1 == id2 {
			t.Fatalf("Workers=%d: duplicate of a diverged training must launch a fresh task (ids %d, %d)", workers, id1, id2)
		}
		sim.RunAll()
		if len(got) != 2 {
			t.Fatalf("Workers=%d: %d results, want 2", workers, len(got))
		}
		for i, r := range got {
			if !r.Failed || r.Reward != 0 {
				t.Fatalf("Workers=%d: result %d not failed-with-zero-reward: %+v", workers, i, r)
			}
		}
		if st := ev.CaptureState(); len(st.Caches[0]) != 0 {
			t.Fatalf("Workers=%d: diverged training left %d cache entries", workers, len(st.Caches[0]))
		}
	}
}

// nanSource is a reward table whose every stored metric is a diverged
// training.
type nanSource struct{}

func (nanSource) Metric(string) (float64, bool) { return math.NaN(), true }

// TestDivergedEstimationOnePipeline pins the one submit pipeline where it
// used to fork three ways: the same diverging estimation through an inline
// live future, a pooled live future, and a table lookup must yield the same
// failed Result, leave the cache slot empty (so a duplicate is a miss), and
// checkpoint as not-in-cache.
func TestDivergedEstimationOnePipeline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct {
		name   string
		cfg    Config
		src    RewardSource
		pooled bool
	}{
		{name: "serial live", cfg: Config{BenchSeed: 15, Workers: 1, SizeWeight: math.NaN()}},
		{name: "pooled live", cfg: Config{BenchSeed: 15, Workers: 0, SizeWeight: math.NaN()}, pooled: true},
		{name: "table NaN", cfg: Config{BenchSeed: 15, Workers: 0}, src: nanSource{}},
	}
	var want *Result
	for _, tc := range cases {
		sim, ev, sp := comboSetup(t, tc.cfg)
		ev.SetRewardSource(tc.src)
		choices := denseChoices(sp)
		var got []*Result
		collect := func(r *Result) { got = append(got, r) }
		id1 := ev.Submit(0, choices, collect)
		if launched := ev.inflight[id1].fut != nil; launched != tc.pooled {
			t.Fatalf("%s: future still pending after Submit = %v, want %v", tc.name, launched, tc.pooled)
		}
		id2 := ev.Submit(0, choices, collect)
		if id1 == 0 || id2 == 0 || id1 == id2 {
			t.Fatalf("%s: duplicate of a diverged estimation must be a miss (ids %d, %d)", tc.name, id1, id2)
		}
		st := ev.CaptureState()
		if len(st.Caches[0]) != 0 {
			t.Fatalf("%s: diverged estimation occupies %d cache slots", tc.name, len(st.Caches[0]))
		}
		if len(st.Inflight) != 2 {
			t.Fatalf("%s: %d in-flight records, want 2", tc.name, len(st.Inflight))
		}
		for i, rec := range st.Inflight {
			if rec.InCache {
				t.Fatalf("%s: in-flight record %d captured as InCache", tc.name, i)
			}
		}
		sim.RunAll()
		if len(got) != 2 {
			t.Fatalf("%s: %d results, want 2", tc.name, len(got))
		}
		r := got[0]
		if !r.Failed || r.Reward != 0 || r.Err != "evaluator: non-finite reward NaN" {
			t.Fatalf("%s: result not failed-with-zero-reward: %+v", tc.name, r)
		}
		if want == nil {
			want = r
		} else if !reflect.DeepEqual(want, r) {
			t.Fatalf("%s: result differs from %s:\n%+v\nvs\n%+v", tc.name, cases[0].name, r, want)
		}
	}
}

// TestPoolTraceEvents pins that the pool is invisible to the trace: with
// the host forced to four procs and Workers left at 0 (= GOMAXPROCS) the
// pool is engaged — a semaphore exists and every submission carries a
// future — yet the recorder's digest equals the serial machine's with
// nothing stripped, with and without a mid-flight checkpoint drain.
func TestPoolTraceEvents(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	run := func(workers int, capture bool) [32]byte {
		sim, ev, sp := comboSetup(t, Config{Seed: 14, Workers: workers})
		if pooled := ev.sem != nil; pooled != (workers != 1) {
			t.Fatalf("Workers=%d: pool enabled = %v", workers, pooled)
		}
		rec := trace.NewRecorder(0)
		sim.SetRecorder(rec)
		for k := 0; k < 2; k++ {
			id := ev.Submit(0, variantChoices(t, sp, k), func(*Result) {})
			if launched := ev.inflight[id].fut != nil; launched != (workers != 1) {
				t.Fatalf("Workers=%d: submission %d launched a future = %v", workers, k, launched)
			}
		}
		if capture {
			ev.CaptureState() // drains mid-flight futures
		}
		sim.RunAll()
		return trace.Digest(rec.Events())
	}
	serial := run(1, false)
	for _, capture := range []bool{false, true} {
		if run(0, capture) != serial {
			t.Fatalf("pooled trace digest differs from serial (capture=%v)", capture)
		}
	}
}

// gathered reports whether e has materialised its fidelity subsample.
func gathered(e *Evaluator) bool { return e.rewardTrain != e.Bench.Train }

// TestPoolFirstTrainingsGatherOnce: eight distinct architectures submitted at
// virtual time 0 on an eight-wide pool all reach the subsample's sync.Once
// together, from worker goroutines; rewards and the gathered subset equal the
// serial machine's bit for bit (check.sh races this package whole).
func TestPoolFirstTrainingsGatherOnce(t *testing.T) {
	run := func(workers int) (*Evaluator, []*Result) {
		sim, ev, sp := comboSetup(t, Config{Seed: 14, Workers: workers, RealEpochs: 1})
		if gathered(ev) {
			t.Fatal("New gathered the subsample")
		}
		var got []*Result
		for k := 0; k < 8; k++ {
			ev.Submit(k%3, variantChoices(t, sp, k), func(r *Result) { got = append(got, r) })
		}
		sim.RunAll()
		if len(got) != 8 || !gathered(ev) {
			t.Fatalf("Workers=%d: %d results, gathered %v", workers, len(got), gathered(ev))
		}
		return ev, got
	}
	evS, serial := run(1)
	evP, pooled := run(8)
	if !reflect.DeepEqual(serial, pooled) {
		t.Fatalf("pooled results differ from serial:\n%+v\nvs\n%+v", serial, pooled)
	}
	if !reflect.DeepEqual(evS.rewardTrain, evP.rewardTrain) {
		t.Fatal("pooled evaluator gathered a different subsample")
	}
}

// TestPoolRestoredCacheHitsGatherNothing: an allocation restored from a
// checkpoint that only replays cache hits never pays for the subsample, and
// its root stream sits where the capturing evaluator's did.
func TestPoolRestoredCacheHitsGatherNothing(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{Seed: 15, Workers: 1, RealEpochs: 1})
	for k := 0; k < 2; k++ {
		ev.Submit(0, variantChoices(t, sp, k), func(*Result) {})
	}
	sim.RunAll()
	st := ev.CaptureState()

	sim2 := hpc.NewSim()
	re := Restore(sim2, balsam.NewService(sim2, 4), ev.Bench, sp, ev.Cfg, st)
	var hits []*Result
	for k := 0; k < 2; k++ {
		re.Submit(0, variantChoices(t, sp, k), func(r *Result) { hits = append(hits, r) })
	}
	sim2.RunAll()
	if len(hits) != 2 || !hits[0].Cached || !hits[1].Cached || cachedIn(re) != 2 {
		t.Fatalf("restored evaluator served %d results, %d cached in Trace", len(hits), cachedIn(re))
	}
	if gathered(re) {
		t.Fatal("serving cache hits gathered the subsample")
	}
	if re.rootRand.State() != st.RootRand {
		t.Fatal("restored root stream moved")
	}
	// The first miss gathers exactly the subset the original trained on.
	re.Submit(0, variantChoices(t, sp, 2), func(*Result) {})
	sim2.RunAll()
	if !reflect.DeepEqual(re.rewardTrain, ev.rewardTrain) {
		t.Fatal("restored evaluator gathered a different subsample")
	}
}

// TestShortPoolPanicReachesCaller: a panic inside a reward estimation
// surfaces on the goroutine running the simulation at every Workers setting,
// where the campaign supervisor's recover sees it, instead of killing the
// process from a pool goroutine; its text carries the stack of the goroutine
// that raised it, so the pooled one still names its origin; and no result is
// delivered for it.
func TestShortPoolPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 2} {
		sim, ev, sp := comboSetup(t, Config{Seed: 5, Workers: workers})
		ev.Bench.Val = nil // the post-training validation pass dereferences it
		delivered := false
		p := func() (p any) {
			defer func() { p = recover() }()
			ev.Submit(0, denseChoices(sp), func(*Result) { delivered = true })
			sim.RunAll()
			return nil
		}()
		if p == nil {
			t.Fatalf("Workers=%d: the estimation's panic did not reach the caller", workers)
		}
		if !strings.Contains(fmt.Sprint(p), "train.evaluate") {
			t.Fatalf("Workers=%d: the recovered panic does not name train.evaluate:\n%v", workers, p)
		}
		if delivered {
			t.Fatalf("Workers=%d: a result was delivered for the panicked estimation", workers)
		}
	}
}
