package balsam

import (
	"math"
	"testing"

	"nasgo/internal/hpc"
)

func TestFIFODispatchAndQueueing(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 2)
	var done []string
	submit := func(key string, d float64) {
		s.Submit(&Job{Key: key, Duration: d, OnDone: func(j *Job) {
			done = append(done, j.Key)
			if j.State != StateFinished {
				t.Errorf("job %s state %s", j.Key, j.State)
			}
		}})
	}
	sim.At(0, func() {
		submit("a", 10)
		submit("b", 5)
		submit("c", 1) // queued behind a and b
	})
	sim.Run(4)
	if s.pool.Busy() != 2 || s.QueueLen() != 1 {
		t.Fatalf("busy %d queue %d", s.pool.Busy(), s.QueueLen())
	}
	sim.RunAll()
	// b finishes at 5, then c starts and finishes at 6, a at 10.
	if len(done) != 3 || done[0] != "b" || done[1] != "c" || done[2] != "a" {
		t.Fatalf("completion order %v", done)
	}
	if s.Finished() != 3 {
		t.Fatalf("finished = %d", s.Finished())
	}
}

func TestTimeoutState(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 1)
	var state JobState
	s.Submit(&Job{Key: "x", Duration: 600, TimedOut: true, OnDone: func(j *Job) { state = j.State }})
	sim.RunAll()
	if state != StateTimeout {
		t.Fatalf("state %s, want %s", state, StateTimeout)
	}
}

func TestJobTimestamps(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 1)
	var j1, j2 *Job
	var end1, end2 float64
	sim.At(0, func() {
		s.Submit(&Job{Key: "1", Duration: 4, OnDone: func(j *Job) { j1, end1 = j, sim.Now() }})
		s.Submit(&Job{Key: "2", Duration: 3, OnDone: func(j *Job) { j2, end2 = j, sim.Now() }})
	})
	sim.RunAll()
	if j1.StartTime != 0 || end1 != 4 {
		t.Fatalf("job1 times %g-%g", j1.StartTime, end1)
	}
	if j2.StartTime != 4 || end2 != 7 {
		t.Fatalf("job2 times start %g end %g", j2.StartTime, end2)
	}
}

func TestMeanUtilization(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 2)
	// One node busy for 10 s out of 2 nodes × 10 s → 0.5: one bucket
	// spanning the whole run is the run's mean.
	s.Submit(&Job{Key: "a", Duration: 10})
	sim.RunAll()
	if u := s.UtilizationSeries(sim.Now()); len(u) != 1 || math.Abs(u[0]-0.5) > 1e-12 {
		t.Fatalf("utilization %v, want [0.5]", u)
	}
}

func TestUtilizationSeries(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 2)
	// Both nodes busy 0-60, one busy 60-120.
	s.Submit(&Job{Key: "a", Duration: 60})
	s.Submit(&Job{Key: "b", Duration: 120})
	sim.RunAll()
	series := s.UtilizationSeries(60)
	// now=120 is an exact multiple of the bucket: exactly 2 buckets, no
	// spurious zero-width trailing sample.
	if len(series) != 2 {
		t.Fatalf("series length %d: %v", len(series), series)
	}
	if math.Abs(series[0]-1.0) > 1e-12 || math.Abs(series[1]-0.5) > 1e-12 {
		t.Fatalf("series %v, want [1.0 0.5]", series)
	}
}

func TestUtilizationSeriesPartialBucket(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 1)
	s.Submit(&Job{Key: "a", Duration: 90})
	sim.RunAll()
	series := s.UtilizationSeries(60)
	// Bucket 0: fully busy; bucket 1 (60-90, partial): fully busy.
	if len(series) != 2 || math.Abs(series[0]-1) > 1e-12 || math.Abs(series[1]-1) > 1e-12 {
		t.Fatalf("series %v", series)
	}
}

func TestBackloggedPoolStaysSaturated(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 4)
	for i := 0; i < 100; i++ {
		s.Submit(&Job{Key: "j", Duration: 7})
	}
	sim.RunAll()
	if u := s.UtilizationSeries(sim.Now()); len(u) != 1 || u[0] < 0.999 {
		t.Fatalf("backlogged pool utilization %v, want [~1]", u)
	}
	if s.Finished() != 100 {
		t.Fatalf("finished %d", s.Finished())
	}
}

func TestZeroDurationJob(t *testing.T) {
	sim := hpc.NewSim()
	s := NewService(sim, 1)
	ran := false
	s.Submit(&Job{Key: "instant", Duration: 0, OnDone: func(*Job) { ran = true }})
	sim.RunAll()
	if !ran {
		t.Fatal("zero-duration job never completed")
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewService(hpc.NewSim(), 1).Submit(&Job{Duration: -1})
}

func TestNoNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewService(hpc.NewSim(), 0)
}
