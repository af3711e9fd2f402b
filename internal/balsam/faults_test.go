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
	s := NewServiceWithOptions(sim, 1, Options{BackoffBase: 5})
	var trace []JobState
	job := &Job{Key: "x", Duration: 10}
	sim.At(0, func() {
		s.Submit(job)
		trace = append(trace, job.State) // CREATED is overwritten by dispatch at t=0
	})
	// Peek at the state at chosen times.
	sim.At(1, func() { trace = append(trace, job.State) })  // RUNNING
	sim.At(2, func() { s.nodeDown(0) })                     // kill mid-run
	sim.At(3, func() { trace = append(trace, job.State) })  // RUN_ERROR (backoff)
	sim.At(6, func() { s.nodeUp(0) })                       // repaired before requeue at 7
	sim.At(8, func() { trace = append(trace, job.State) })  // RUNNING again
	sim.At(20, func() { trace = append(trace, job.State) }) // JOB_FINISHED at 17
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
	if s.Retries() != 1 || s.Failed() != 0 || s.Finished() != 1 {
		t.Fatalf("retries %d failed %d finished %d", s.Retries(), s.Failed(), s.Finished())
	}
}

// TestRestartReadyState pins the transient RESTART_READY state: a requeued
// job whose nodes are all down waits in RESTART_READY.
func TestRestartReadyState(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{BackoffBase: 5})
	job := &Job{Key: "x", Duration: 10}
	sim.At(0, func() { s.Submit(job) })
	sim.At(2, func() { s.nodeDown(0) })
	// Backoff ends at 7 but the node is still down: RESTART_READY.
	sim.At(8, func() {
		if job.State != StateRestartReady {
			t.Errorf("state %s, want %s", job.State, StateRestartReady)
		}
	})
	sim.At(9, func() { s.nodeUp(0) })
	sim.RunAll()
	if job.State != StateFinished {
		t.Fatalf("final state %s", job.State)
	}
	// Second run started at repair time 9, duration 10.
	if job.EndTime != 19 {
		t.Fatalf("end time %g, want 19", job.EndTime)
	}
}

// TestTerminalFailedAfterMaxRetries kills every attempt; the job must go
// FAILED after MaxRetries requeues and fire OnDone exactly once.
func TestTerminalFailedAfterMaxRetries(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 1, Options{MaxRetries: 2, BackoffBase: 1, BackoffCap: 1})
	done := 0
	job := &Job{Key: "doomed", Duration: 100, OnDone: func(*Job) { done++ }}
	sim.At(0, func() { s.Submit(job) })
	// Kill the node shortly after every (re)start: starts at 0, then the
	// node comes back and the retry starts; kill again, etc.
	kill := func() { s.nodeDown(0) }
	heal := func() { s.nodeUp(0) }
	for i := 0; i < 4; i++ {
		off := float64(i * 10)
		sim.At(off+2, kill)
		sim.At(off+5, heal)
	}
	sim.RunAll()
	if job.State != StateFailed {
		t.Fatalf("state %s, want %s", job.State, StateFailed)
	}
	// MaxRetries=2 ⇒ 3 attempts total, 2 requeues.
	if job.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", job.Attempts)
	}
	if s.Retries() != 2 || s.Failed() != 1 || s.Finished() != 0 {
		t.Fatalf("retries %d failed %d finished %d", s.Retries(), s.Failed(), s.Finished())
	}
	if done != 1 {
		t.Fatalf("OnDone fired %d times", done)
	}
}

// TestStaleCompletionIgnored: the completion event of a killed attempt must
// not finish the job's retry early.
func TestStaleCompletionIgnored(t *testing.T) {
	sim := hpc.NewSim()
	s := NewServiceWithOptions(sim, 2, Options{BackoffBase: 1})
	job := &Job{Key: "x", Duration: 10}
	sim.At(0, func() { s.Submit(job) })
	sim.At(4, func() { s.nodeDown(0) }) // kill attempt 1; retry lands on node 1
	sim.RunAll()
	if job.State != StateFinished {
		t.Fatalf("state %s", job.State)
	}
	// Attempt 2 starts at 5 (backoff 1) on node 1 and runs the full 10 s;
	// the stale completion at t=10 must not have ended it.
	if job.EndTime != 15 {
		t.Fatalf("end time %g, want 15", job.EndTime)
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
		s.Submit(&Job{Key: "q", Duration: 5, OnDone: func(j *Job) { end = j.EndTime }})
	})
	sim.At(10, func() { s.nodeUp(0) })
	sim.RunAll()
	if end != 15 {
		t.Fatalf("end %g, want 15 (start at repair time 10)", end)
	}
}

// TestUtilizationUnderFaults: dead node-seconds must be excluded from the
// available capacity in MeanUtilization and UtilizationSeries.
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
	// Busy 60 node-s over available 2*60-60 = 60 node-s → 1.0.
	if u := s.MeanUtilization(); math.Abs(u-1.0) > 1e-12 {
		t.Fatalf("mean utilization %g, want 1.0", u)
	}
	if d := s.DeadSeconds(); math.Abs(d-60) > 1e-12 {
		t.Fatalf("dead seconds %g, want 60", d)
	}
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
	terminal := 0
	for i := 0; i < 40; i++ {
		s.Submit(&Job{Key: "j", Duration: 90, OnDone: func(*Job) { terminal++ }})
	}
	sim.RunAll()
	if s.NodeFailures() == 0 {
		t.Fatal("expected injected node failures")
	}
	if s.Finished()+s.Failed() != 40 || terminal != 40 {
		t.Fatalf("finished %d + failed %d != 40 (OnDone %d)", s.Finished(), s.Failed(), terminal)
	}
	if s.Failed() > s.NodeFailures() {
		t.Fatalf("failed %d > node failures %d", s.Failed(), s.NodeFailures())
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
			s.Submit(&Job{Key: "j", Duration: 70, OnDone: func(j *Job) { ends = append(ends, j.EndTime) }})
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
			spans = append(spans, j.EndTime-j.StartTime)
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
		ends   []float64
		util   float64
		series []float64
	}
	run := func(mk func(*hpc.Sim) *Service) outcome {
		sim := hpc.NewSim()
		s := mk(sim)
		var o outcome
		for i := 0; i < 9; i++ {
			s.Submit(&Job{Key: "j", Duration: float64(20 + i*7), OnDone: func(j *Job) {
				o.ends = append(o.ends, j.EndTime)
			}})
		}
		sim.RunAll()
		o.util = s.MeanUtilization()
		o.series = s.UtilizationSeries(30)
		return o
	}
	plain := run(func(sim *hpc.Sim) *Service { return NewService(sim, 3) })
	opt := run(func(sim *hpc.Sim) *Service { return NewServiceWithOptions(sim, 3, Options{}) })
	if plain.util != opt.util {
		t.Fatalf("util %g != %g", plain.util, opt.util)
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
