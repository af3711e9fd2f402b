package balsam

import (
	"fmt"
	"reflect"
	"testing"

	"nasgo/internal/hpc"
	"nasgo/internal/trace"
)

// restoreOpts is the fault cocktail of the capture/restore test: timeline
// failures, stragglers, and retries all active, over a horizon the run
// fully crosses.
func restoreOpts() Options {
	return Options{
		Faults:       hpc.FaultModel{MTBF: 900, MTTR: 150, StragglerProb: 0.25, StragglerSlowdown: 3, Seed: 11},
		FaultHorizon: 3000,
		MaxRetries:   2,
	}
}

// restoreScript injects scripted faults at virtual-time boundaries, the
// same in the baseline and the resumed run: a double failure just before
// the cut (so the checkpoint carries down nodes, a pending requeue backoff,
// and — asserted below — a stale completion event), repairs after it, and a
// second fault cycle deep in the resumed half.
func restoreScript(svc *Service, now float64) {
	switch now {
	case 390:
		svc.FailNode(0)
		svc.FailNode(1)
	case 450:
		svc.RepairNode(0)
		svc.RepairNode(1)
	case 600:
		svc.FailNode(2)
	case 660:
		svc.RepairNode(2)
	}
}

type restoreSummary struct {
	Finished, Failed, Retries, NodeFailures int
	QueueLen, Busy, Down                    int
	BusySeconds, DeadSeconds, IdleSeconds   float64
	MeanUtilization                         float64
	Utilization                             []float64
}

func summarize(svc *Service) restoreSummary {
	return restoreSummary{
		Finished: svc.Finished(), Failed: svc.Failed(),
		Retries: svc.Retries(), NodeFailures: svc.NodeFailures(),
		QueueLen: svc.QueueLen(), Busy: svc.pool.Busy(), Down: svc.pool.Down(),
		BusySeconds: svc.BusySeconds(), DeadSeconds: svc.DeadSeconds(),
		IdleSeconds: svc.IdleSeconds(), MeanUtilization: svc.MeanUtilization(),
		Utilization: svc.UtilizationSeries(500),
	}
}

// TestCaptureRestoreEquivalence is the in-package half of the restore
// story (the search package pins the full byte-identical log): a faulted,
// straggling, retrying machine is captured mid-run at a quiescent point and
// rebuilt with RestoreService + hpc.Sim.Resume on a fresh simulator.
// From the cut onward, the resumed machine must emit exactly the trace the
// uninterrupted one does and land on identical counters, utilization
// integrals, and series.
func TestCaptureRestoreEquivalence(t *testing.T) {
	const (
		nodes   = 6
		cut     = 400.0
		horizon = 3000.0
		window  = 10.0
		maxSub  = 60
	)
	newJob := func(i int) *Job {
		return &Job{AgentID: i % 4, Key: fmt.Sprintf("j%d", i%12), Duration: 50 + 20*float64(i%5)}
	}
	relink := func(svc *Service, submitted *int) func(*Job) {
		var onDone func(*Job)
		onDone = func(j *Job) {
			if *submitted < maxSub {
				*submitted++
				j.Attempts = 0
				svc.Submit(j)
			}
		}
		return onDone
	}

	// Baseline: uninterrupted run, capturing state (and the trace cursor)
	// at the cut.
	sim := hpc.NewSim()
	rec := trace.NewRecorder(0)
	sim.SetRecorder(rec)
	svc := NewServiceWithOptions(sim, nodes, restoreOpts())
	submitted := 0
	onDone := relink(svc, &submitted)
	for i := 0; i < 12; i++ {
		job := newJob(i)
		job.OnDone = onDone
		submitted++
		svc.Submit(job)
	}
	var st *State
	var subAtCut, pendingAtCut int
	var cutCursor int64
	for now := window; now <= horizon; now += window {
		sim.Run(now)
		restoreScript(svc, now)
		if now == cut {
			st = svc.CaptureState()
			pendingAtCut = len(sim.Pending())
			subAtCut = submitted
			cutCursor = rec.Total()
		}
	}
	baseline := summarize(svc)
	baseEvents, _ := rec.EventsSince(cutCursor)

	// The cut must be interesting: down nodes, a stale completion, and a
	// job waiting out its requeue backoff all in the checkpoint.
	if len(st.DownNodes) < 2 {
		t.Fatalf("cut carries %d down nodes, want the 2 scripted ones", len(st.DownNodes))
	}
	if len(st.Stale) == 0 {
		t.Fatal("cut carries no stale completion event; the evStale restore path is untested")
	}
	hasRequeue := false
	claimed := len(st.Stale) + len(st.PendingTimeline)
	for _, rec := range st.Jobs {
		if rec.State == StateRunError && rec.HasFire {
			hasRequeue = true
		}
		if rec.HasFire {
			claimed++
		}
	}
	// The service is alone on this simulator, so its state must account for
	// the whole frontier — an event it failed to claim would not exist
	// after the resume.
	if claimed != pendingAtCut {
		t.Fatalf("state carries %d pending events, the simulator holds %d", claimed, pendingAtCut)
	}
	if !hasRequeue {
		t.Fatal("cut carries no pending requeue backoff; the evRequeue restore path is untested")
	}
	if len(st.PendingTimeline) == 0 {
		t.Fatal("cut carries no pending timeline events")
	}

	// Resume: fresh simulator at the cut time, restored service, replayed
	// event frontier, relinked callbacks — then the same drive loop.
	sim2 := hpc.NewSimAt(cut)
	rec2 := trace.NewRecorder(0)
	sim2.SetRecorder(rec2)
	svc2, frontier := RestoreService(sim2, nodes, restoreOpts(), st)
	submitted2 := subAtCut
	onDone2 := relink(svc2, &submitted2)
	for _, jr := range st.Jobs {
		svc2.Job(jr.ID).OnDone = onDone2
	}
	sim2.Resume(frontier)
	for now := cut + window; now <= horizon; now += window {
		sim2.Run(now)
		restoreScript(svc2, now)
	}
	resumed := summarize(svc2)

	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatalf("resumed summary diverged:\nbaseline: %+v\nresumed:  %+v", baseline, resumed)
	}
	if submitted2 != submitted {
		t.Fatalf("resumed run submitted %d jobs, baseline %d", submitted2, submitted)
	}
	resEvents := rec2.Events()
	if len(resEvents) != len(baseEvents) {
		t.Fatalf("resumed trace has %d events, baseline tail has %d", len(resEvents), len(baseEvents))
	}
	for i := range baseEvents {
		if baseEvents[i] != resEvents[i] {
			t.Fatalf("trace diverges at event %d:\nbaseline: %+v\nresumed:  %+v", i, baseEvents[i], resEvents[i])
		}
	}
}

// TestServiceAccessors covers the small read-only surface on a fresh
// machine, including MeanUtilization's t=0 guard.
func TestServiceAccessors(t *testing.T) {
	sim := hpc.NewSim()
	svc := NewService(sim, 4)
	if svc.pool.Len() != 4 {
		t.Fatalf("pool.Len() = %d, want 4", svc.pool.Len())
	}
	if u := svc.MeanUtilization(); u != 0 {
		t.Fatalf("MeanUtilization at t=0 = %g, want 0", u)
	}
	if svc.Job(99) != nil {
		t.Fatal("Job(99) on an empty service should be nil")
	}
}
