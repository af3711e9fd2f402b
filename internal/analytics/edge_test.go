package analytics

import (
	"math"
	"testing"

	"nasgo/internal/evaluator"
	"nasgo/internal/trace"
)

func TestTrajectoryEdgeCases(t *testing.T) {
	cases := []struct {
		name            string
		results         []*evaluator.Result
		bucket, horizon float64
		wantLen         int
		check           func(t *testing.T, traj []TrajectoryPoint)
	}{
		{
			name: "empty results", bucket: 60, horizon: 180, wantLen: 3,
			check: func(t *testing.T, traj []TrajectoryPoint) {
				for i, p := range traj {
					if p.Count != 0 || !math.IsNaN(p.Mean) || !math.IsInf(p.Best, -1) {
						t.Fatalf("bucket %d of empty trajectory = %+v", i, p)
					}
				}
			},
		},
		{
			name: "empty results zero horizon", bucket: 60, horizon: 0, wantLen: 1,
			check: func(t *testing.T, traj []TrajectoryPoint) {
				if !math.IsNaN(traj[0].Mean) {
					t.Fatalf("want NaN mean, got %g", traj[0].Mean)
				}
			},
		},
		{
			name:    "bucket larger than horizon",
			results: results(10, 0.1, 50, 0.4),
			bucket:  600, horizon: 60, wantLen: 1,
			check: func(t *testing.T, traj []TrajectoryPoint) {
				if traj[0].Count != 2 || traj[0].Best != 0.4 || math.Abs(traj[0].Mean-0.25) > 1e-12 {
					t.Fatalf("single bucket = %+v", traj[0])
				}
			},
		},
		{
			name: "all-failed bucket",
			results: []*evaluator.Result{
				{FinishTime: 10, Reward: 0, Failed: true},
				{FinishTime: 20, Reward: 0, Failed: true},
				{FinishTime: 70, Reward: 0.3},
			},
			bucket: 60, horizon: 120, wantLen: 2,
			check: func(t *testing.T, traj []TrajectoryPoint) {
				if traj[0].Count != 2 || traj[0].Mean != 0 || traj[0].Best != 0 {
					t.Fatalf("all-failed bucket = %+v", traj[0])
				}
				if traj[1].Best != 0.3 {
					t.Fatalf("recovery bucket = %+v", traj[1])
				}
			},
		},
		{
			name:    "result past horizon extends grid",
			results: results(250, 0.2),
			bucket:  100, horizon: 100, wantLen: 3,
			check: func(t *testing.T, traj []TrajectoryPoint) {
				if traj[2].Count != 1 || traj[2].Best != 0.2 {
					t.Fatalf("overflow bucket = %+v", traj[2])
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			traj := Trajectory(c.results, c.bucket, c.horizon)
			if len(traj) != c.wantLen {
				t.Fatalf("len = %d, want %d", len(traj), c.wantLen)
			}
			c.check(t, traj)
		})
	}
}

func TestResultsFromTrace(t *testing.T) {
	events := []trace.Event{
		{Time: 5, Cat: trace.CatSim, Name: trace.EvDispatch, Node: trace.None, Agent: trace.None},
		{Time: 10, Dur: 10, Kind: trace.KindSpan, Cat: trace.CatEval, Name: trace.EvResult, Node: trace.None, Agent: 0, Value: 0.4},
		{Time: 12, Kind: trace.KindSpan, Cat: trace.CatEval, Name: trace.EvResult, Node: trace.None, Agent: 1, Value: 0.4, Detail: "cached"},
		{Time: 14, Kind: trace.KindSpan, Cat: trace.CatEval, Name: trace.EvResult, Node: trace.None, Agent: 0, Detail: "failed"},
		{Time: 16, Dur: 600, Kind: trace.KindSpan, Cat: trace.CatEval, Name: trace.EvResult, Node: trace.None, Agent: 1, Value: 0.1, Detail: "timeout"},
	}
	rs := ResultsFromTrace(events)
	if len(rs) != 4 {
		t.Fatalf("results = %d, want 4", len(rs))
	}
	if rs[0].FinishTime != 10 || rs[0].Reward != 0.4 || rs[0].Duration != 10 || rs[0].AgentID != 0 {
		t.Fatalf("result 0 = %+v", rs[0])
	}
	if !rs[1].Cached || !rs[2].Failed || !rs[3].TimedOut {
		t.Fatal("detail flags not reconstructed")
	}
	traj := TrajectoryFromTrace(events, 10, 20)
	want := Trajectory(rs, 10, 20)
	if len(traj) != len(want) {
		t.Fatalf("trajectory view: %d buckets, want %d", len(traj), len(want))
	}
	if ResultsFromTrace(nil) != nil {
		t.Fatal("no events → no results")
	}
}

func TestUtilizationSeriesFromTrace(t *testing.T) {
	counter := func(tm float64, name string, v float64) trace.Event {
		return trace.Event{Time: tm, Kind: trace.KindCounter, Cat: trace.CatBalsam,
			Name: name, Node: trace.None, Agent: trace.None, Value: v}
	}
	events := []trace.Event{
		counter(0, trace.EvBusyNodes, 2), counter(0, trace.EvDownNodes, 0),
		counter(60, trace.EvBusyNodes, 1), counter(60, trace.EvDownNodes, 1),
		counter(120, trace.EvBusyNodes, 0), counter(120, trace.EvDownNodes, 0),
		{Time: 120, Cat: trace.CatSim, Name: trace.EvDispatch, Node: trace.None, Agent: trace.None},
	}
	series := UtilizationSeriesFromTrace(events, 2, 60)
	if len(series) != 2 {
		t.Fatalf("series = %v, want 2 buckets", series)
	}
	// Bucket 0: 2 of 2 nodes busy for 60 s → 1.0. Bucket 1: 1 busy of 1
	// available (the other down) → 1.0.
	if math.Abs(series[0]-1) > 1e-12 || math.Abs(series[1]-1) > 1e-12 {
		t.Fatalf("series = %v, want [1 1]", series)
	}

	if got := UtilizationSeriesFromTrace(nil, 4, 60); got != nil {
		t.Fatalf("empty trace → nil series, got %v", got)
	}

	// Bucket larger than horizon: one partial bucket.
	series = UtilizationSeriesFromTrace(events, 2, 600)
	if len(series) != 1 {
		t.Fatalf("oversized bucket series = %v", series)
	}
}
