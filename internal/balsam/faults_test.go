package balsam

import (
	"math"
	"testing"

	"nasgo/internal/hpc"
)

// TestStateMachineTransitions drives a job through every legal transition
// by failing its node directly: CREATED → RUNNING → RUN_ERROR →
// RESTART_READY → RUNNING → JOB_FINISHED.
func TestStateMachineTransitions(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{})
	var trace []JobState
	failed := 0
	job := &Job{Key: "x", Duration: 10, OnDone: func(j *Job) {
		if j.State == StateFailed {
			failed++
		}
	}}
	sim.At(0, func() {
		s.Submit(job)
		trace = append(trace, job.State) // CREATED is overwritten by dispatch at t=0
	})
	// Peek at the state at chosen times.
	sim.At(1, func() { trace = append(trace, job.State) })  // RUNNING
	sim.At(2, func() { s.nodeDown(0) })                     // kill mid-run
	sim.At(3, func() { trace = append(trace, job.State) })  // RUN_ERROR (backoff)
	sim.At(6, func() { s.nodeUp(0) })                       // repaired before requeue at 17
	sim.At(18, func() { trace = append(trace, job.State) }) // RUNNING again
	sim.At(30, func() { trace = append(trace, job.State) }) // JOB_FINISHED at 27
	sim.RunAll()
	want := []JobState{StateRunning, StateRunning, StateRunError, StateRunning, StateFinished}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, trace[i], want[i], trace)
		}
	}
	if job.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", job.Attempts)
	}
	if s.Retries() != 1 || failed != 0 || s.Finished() != 1 {
		t.Fatalf("retries %d failed %d finished %d", s.Retries(), failed, s.Finished())
	}
}

// TestRestartReadyState pins the transient RESTART_READY state: a requeued
// job whose nodes are all down waits in RESTART_READY.
func TestRestartReadyState(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{})
	var end float64
	job := &Job{Key: "x", Duration: 10, OnDone: func(*Job) { end = sim.Now() }}
	sim.At(0, func() { s.Submit(job) })
	sim.At(2, func() { s.nodeDown(0) })
	// Backoff ends at 17 but the node is still down: RESTART_READY.
	sim.At(18, func() {
		if job.State != StateRestartReady {
			t.Errorf("state %s, want %s", job.State, StateRestartReady)
		}
	})
	sim.At(19, func() { s.nodeUp(0) })
	sim.RunAll()
	if job.State != StateFinished {
		t.Fatalf("final state %s", job.State)
	}
	// Second run started at repair time 19, duration 10.
	if end != 29 {
		t.Fatalf("end time %g, want 29", end)
	}
}

// TestTerminalFailedAfterMaxRetries kills every attempt; the job must go
// FAILED after MaxRetries requeues and fire OnDone exactly once.
func TestTerminalFailedAfterMaxRetries(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{MaxRetries: 2})
	done, failed := 0, 0
	job := &Job{Key: "doomed", Duration: 100, OnDone: func(j *Job) {
		done++
		if j.State == StateFailed {
			failed++
		}
	}}
	sim.At(0, func() { s.Submit(job) })
	// Kill the node 2 s after every (re)start and heal it 3 s later: starts
	// at 0, 17 (backoff 15) and 49 (backoff 30), kills at 2, 19 and 51.
	for _, start := range []float64{0, 17, 49} {
		sim.At(start+2, func() { s.nodeDown(0) })
		sim.At(start+5, func() { s.nodeUp(0) })
	}
	sim.RunAll()
	if job.State != StateFailed {
		t.Fatalf("state %s, want %s", job.State, StateFailed)
	}
	// MaxRetries=2 ⇒ 3 attempts total, 2 requeues.
	if job.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", job.Attempts)
	}
	if s.Retries() != 2 || failed != 1 || s.Finished() != 0 {
		t.Fatalf("retries %d failed %d finished %d", s.Retries(), failed, s.Finished())
	}
	if done != 1 {
		t.Fatalf("OnDone fired %d times", done)
	}
}

// TestStaleCompletionIgnored: the completion event of a killed attempt must
// not finish the job's retry early.
func TestStaleCompletionIgnored(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 2, Options{})
	var end float64
	job := &Job{Key: "x", Duration: 30, OnDone: func(*Job) { end = sim.Now() }}
	sim.At(0, func() { s.Submit(job) })
	sim.At(4, func() { s.nodeDown(0) }) // kill attempt 1; retry lands on node 1
	sim.RunAll()
	if job.State != StateFinished {
		t.Fatalf("state %s", job.State)
	}
	// Attempt 2 starts at 19 (backoff 15) on node 1 and runs the full 30 s;
	// the stale completion at t=30 must not have ended it.
	if end != 49 {
		t.Fatalf("end time %g, want 49", end)
	}
	if s.Finished() != 1 {
		t.Fatalf("finished %d, want 1", s.Finished())
	}
}

// TestQueuedJobsSurviveNodeDeath: killing an idle pool's only node must not
// touch queued jobs; they run after repair.
func TestQueuedJobsSurviveNodeDeath(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{})
	sim.At(0, func() { s.nodeDown(0) })
	var end float64
	sim.At(1, func() {
		s.Submit(&Job{Key: "q", Duration: 5, OnDone: func(*Job) { end = sim.Now() }})
	})
	sim.At(10, func() { s.nodeUp(0) })
	sim.RunAll()
	if end != 15 {
		t.Fatalf("end %g, want 15 (start at repair time 10)", end)
	}
}

// TestUtilizationUnderFaults: dead node-seconds must be excluded from the
// available capacity in UtilizationSeries.
func TestUtilizationUnderFaults(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 2, Options{})
	// Node 1 dead from 0 to 60; node 0 busy 0-60. Horizon 60.
	sim.At(0, func() {
		s.nodeDown(1)
		s.Submit(&Job{Key: "a", Duration: 60})
	})
	sim.At(60, func() { s.nodeUp(1) })
	sim.RunAll()
	// Busy 60 node-s over available 2*60-60 = 60 node-s → 1.0 in every
	// bucket; counting the dead node as capacity would read 0.5.
	series := s.UtilizationSeries(30)
	if len(series) != 2 || math.Abs(series[0]-1) > 1e-12 || math.Abs(series[1]-1) > 1e-12 {
		t.Fatalf("series %v, want [1 1]", series)
	}
}

// TestFaultTimelineInjection: a Service built with a real FaultModel sees
// node failures and recovers; all jobs terminate (finished or failed).
func TestFaultTimelineInjection(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 4, Options{
		Faults:       hpc.FaultModel{MTBF: 300, MTTR: 60, Seed: 7},
		FaultHorizon: 3600,
	})
	terminal, failed := 0, 0
	for i := 0; i < 40; i++ {
		s.Submit(&Job{Key: "j", Duration: 90, OnDone: func(j *Job) {
			terminal++
			if j.State == StateFailed {
				failed++
			}
		}})
	}
	sim.RunAll()
	if s.NodeFailures() == 0 {
		t.Fatal("expected injected node failures")
	}
	if s.Finished()+failed != 40 || terminal != 40 {
		t.Fatalf("finished %d + failed %d != 40 (OnDone %d)", s.Finished(), failed, terminal)
	}
	if failed > s.NodeFailures() {
		t.Fatalf("failed %d > node failures %d", failed, s.NodeFailures())
	}
	if s.pool.Busy() != 0 || s.QueueLen() != 0 {
		t.Fatalf("pool not drained: busy %d queue %d", s.pool.Busy(), s.QueueLen())
	}
	// No node may end the run dark: every down event has a matching repair.
	if s.pool.Down() != 0 {
		t.Fatalf("%d nodes still down after RunAll", s.pool.Down())
	}
}

// TestFaultReplayDeterminism: identical options ⇒ identical event history.
func TestFaultReplayDeterminism(t *testing.T) {
	run := func() ([]float64, int, int) {
		sim := hpc.NewSim()
		s := NewServiceWithOptions(sim, 3, Options{
			Faults:       hpc.FaultModel{MTBF: 200, MTTR: 50, StragglerProb: 0.3, Seed: 11},
			FaultHorizon: 2000,
		})
		var ends []float64
		for i := 0; i < 20; i++ {
			s.Submit(&Job{Key: "j", Duration: 70, OnDone: func(*Job) { ends = append(ends, sim.Now()) }})
		}
		sim.RunAll()
		return ends, s.Retries(), s.NodeFailures()
	}
	e1, r1, f1 := run()
	e2, r2, f2 := run()
	if r1 != r2 || f1 != f2 || len(e1) != len(e2) {
		t.Fatalf("replay diverged: retries %d/%d failures %d/%d len %d/%d", r1, r2, f1, f2, len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("end[%d] %g != %g", i, e1[i], e2[i])
		}
	}
}

// TestStragglerSlowsJob: with StragglerProb=1 every job is slowed by a
// factor in (1, slowdown]; durations must exceed the nominal duration.
func TestStragglerSlowsJob(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{
		Faults: hpc.FaultModel{StragglerProb: 1, StragglerSlowdown: 3, Seed: 5},
	})
	var spans []float64
	for i := 0; i < 5; i++ {
		s.Submit(&Job{Key: "j", Duration: 10, OnDone: func(j *Job) {
			spans = append(spans, sim.Now()-j.StartTime)
		}})
	}
	sim.RunAll()
	for i, sp := range spans {
		if sp <= 10 || sp > 30 {
			t.Fatalf("span[%d] = %g, want in (10, 30]", i, sp)
		}
	}
}

// TestNodePool covers the pool's own invariants.
func TestNodePool(t *testing.T) {
	p := NewNodePool(2)
	j := &Job{Key: "a"}
	if n := p.Acquire(j); n != 0 {
		t.Fatalf("first acquire node %d, want 0", n)
	}
	if n := p.Acquire(&Job{Key: "b"}); n != 1 {
		t.Fatalf("second acquire node %d, want 1", n)
	}
	if p.Acquire(&Job{Key: "c"}) != -1 {
		t.Fatal("acquire on full pool should fail")
	}
	if p.Busy() != 2 || p.JobOn(0) != j {
		t.Fatalf("busy %d, jobOn(0) %v", p.Busy(), p.JobOn(0))
	}
	p.Release(1)
	if p.Busy() != 1 || p.State(1) != NodeIdle {
		t.Fatalf("after release: busy %d state %v", p.Busy(), p.State(1))
	}
	p.SetDown(0) // busy node goes down
	if p.Down() != 1 || p.Busy() != 0 || p.JobOn(0) != nil {
		t.Fatalf("after down: down %d busy %d", p.Down(), p.Busy())
	}
	p.SetDown(0) // idempotent
	if p.Down() != 1 {
		t.Fatal("double SetDown changed state")
	}
	p.SetUp(0)
	if p.Down() != 0 || p.State(0) != NodeIdle {
		t.Fatalf("after up: down %d state %v", p.Down(), p.State(0))
	}
	p.SetUp(0) // idempotent on idle
	if p.State(0) != NodeIdle {
		t.Fatal("SetUp on idle node changed state")
	}
}

// TestZeroFaultOptionsMatchesPlainService: with the zero FaultModel the
// fault-aware service must reproduce NewService numbers exactly.
func TestZeroFaultOptionsMatchesPlainService(t *testing.T) {
	type outcome struct {
		ends, series                    []float64
		finished, retries, nodeFailures int
	}
	run := func(mk func(*hpc.Sim) *Service) outcome {
		sim := hpc.NewSim()
		s := mk(sim)
		var o outcome
		for i := 0; i < 9; i++ {
			s.Submit(&Job{Key: "j", Duration: float64(20 + i*7), OnDone: func(*Job) {
				o.ends = append(o.ends, sim.Now())
			}})
		}
		sim.RunAll()
		o.series = s.UtilizationSeries(30)
		o.finished, o.retries, o.nodeFailures = s.Finished(), s.Retries(), s.NodeFailures()
		return o
	}
	plain := run(func(sim *hpc.Sim) *Service { return NewService(sim, 3) })
	opt := run(func(sim *hpc.Sim) *Service { return NewServiceWithOptions(sim, 3, Options{}) })
	if plain.finished != opt.finished || plain.retries != opt.retries || plain.nodeFailures != opt.nodeFailures {
		t.Fatalf("counters diverged: %+v vs %+v", plain, opt)
	}
	if len(plain.ends) != len(opt.ends) || len(plain.series) != len(opt.series) {
		t.Fatalf("shape mismatch: %v vs %v", plain, opt)
	}
	for i := range plain.ends {
		if plain.ends[i] != opt.ends[i] {
			t.Fatalf("end[%d] %g != %g", i, plain.ends[i], opt.ends[i])
		}
	}
	for i := range plain.series {
		if plain.series[i] != opt.series[i] {
			t.Fatalf("series[%d] %g != %g", i, plain.series[i], opt.series[i])
		}
	}
}
