package analytics

import (
	"math"
	"testing"
	"testing/quick"

	"nasgo/internal/evaluator"
	"nasgo/internal/rng"
)

func results(pairs ...float64) []*evaluator.Result {
	// pairs are (finishTime, reward) couples.
	out := make([]*evaluator.Result, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, &evaluator.Result{FinishTime: pairs[i], Reward: pairs[i+1]})
	}
	return out
}

func TestTrajectoryBuckets(t *testing.T) {
	rs := results(
		10, 0.1,
		50, 0.3,
		70, 0.2,
		130, 0.5,
	)
	traj := Trajectory(rs, 60, 180)
	if len(traj) != 3 {
		t.Fatalf("buckets = %d, want 3", len(traj))
	}
	if traj[0].Count != 2 || math.Abs(traj[0].Mean-0.2) > 1e-12 || traj[0].Best != 0.3 {
		t.Fatalf("bucket 0 = %+v", traj[0])
	}
	if traj[1].Count != 1 || traj[1].Best != 0.3 {
		t.Fatalf("bucket 1 = %+v", traj[1])
	}
	if traj[2].Best != 0.5 {
		t.Fatalf("bucket 2 best = %g", traj[2].Best)
	}
}

func TestTrajectoryEmptyBucketNaNMean(t *testing.T) {
	rs := results(10, 0.1, 200, 0.2)
	traj := Trajectory(rs, 60, 240)
	if !math.IsNaN(traj[1].Mean) {
		t.Fatal("empty bucket mean must be NaN")
	}
	if traj[1].Best != 0.1 {
		t.Fatal("best-so-far must persist through empty buckets")
	}
}

// TestTrajectoryBestMonotone is the best-so-far invariant.
func TestTrajectoryBestMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var rs []*evaluator.Result
		now := 0.0
		for i := 0; i < 40; i++ {
			now += r.Float64() * 100
			rs = append(rs, &evaluator.Result{FinishTime: now, Reward: r.Norm()})
		}
		traj := Trajectory(rs, 50, now)
		for i := 1; i < len(traj); i++ {
			if traj[i].Best < traj[i-1].Best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBestSoFar(t *testing.T) {
	rs := results(10, 0.1, 60, 0.5, 120, 0.3)
	got := BestSoFar(rs, []float64{5, 30, 90, 150})
	if !math.IsInf(got[0], -1) {
		t.Fatalf("before first result want -Inf, got %g", got[0])
	}
	want := []float64{0.1, 0.5, 0.5}
	for i, w := range want {
		if got[i+1] != w {
			t.Fatalf("grid[%d] = %g, want %g", i+1, got[i+1], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %g", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("min = %g", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("max = %g", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %g", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("interpolated median = %g, want 5", q)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, 1.5) },
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

func TestQuantileBands(t *testing.T) {
	trajs := [][]float64{
		{0, 1, 2},
		{1, 2, 3},
		{2, 3, 4},
	}
	bands := QuantileBands(trajs, []float64{0, 0.5, 1})
	if bands[1][0] != 1 || bands[1][2] != 3 {
		t.Fatalf("median band wrong: %v", bands[1])
	}
	if bands[0][1] != 1 || bands[2][1] != 3 {
		t.Fatalf("extreme bands wrong: %v %v", bands[0], bands[2])
	}
	// Bands must be ordered.
	for i := 0; i < 3; i++ {
		if bands[0][i] > bands[1][i] || bands[1][i] > bands[2][i] {
			t.Fatal("quantile bands out of order")
		}
	}
}

func TestQuantileBandsMismatchedGridsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QuantileBands([][]float64{{1, 2}, {1}}, []float64{0.5})
}

func TestSummarize(t *testing.T) {
	rs := []*evaluator.Result{
		{Key: "a", Reward: 0.5, FinishTime: 1},
		{Key: "b", Reward: 0.2, FinishTime: 2, TimedOut: true},
		{Key: "a", Reward: 0.5, FinishTime: 3, Cached: true},
	}
	s := Summarize(rs)
	if s.Evaluations != 2 || s.CacheHits != 1 || s.UniqueArchs != 2 || s.TimedOut != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.BestReward != 0.5 {
		t.Fatalf("best = %g", s.BestReward)
	}
	if math.Abs(s.MeanReward-0.4) > 1e-12 {
		t.Fatalf("mean = %g", s.MeanReward)
	}

	// A failed evaluation's reward of 0 is neither a best-reward candidate
	// nor part of the mean: the best is the one success, as Log.TopK(1)
	// says. With no success both are NaN.
	failed := []*evaluator.Result{{Key: "a", Reward: -0.3, FinishTime: 1}, {Key: "b", Failed: true, FinishTime: 2}}
	if s := Summarize(failed); s.BestReward != -0.3 || s.MeanReward != -0.3 || s.Evaluations != 2 || s.UniqueArchs != 2 {
		t.Fatalf("summary with a failed evaluation = %+v", s)
	}
	if s := Summarize(failed[1:]); !math.IsNaN(s.BestReward) || !math.IsNaN(s.MeanReward) {
		t.Fatalf("summary with no success = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if !math.IsNaN(s.BestReward) || !math.IsNaN(s.MeanReward) {
		t.Fatal("empty summary must be NaN-valued")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(300, 100)
	if len(g) != 3 || g[0] != 100 || g[2] != 300 {
		t.Fatalf("grid = %v", g)
	}
}
