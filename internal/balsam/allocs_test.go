package balsam

import (
	"testing"

	"nasgo/internal/hpc"
	"nasgo/internal/trace"
)

// steadyState builds a service whose jobs recycle forever: every completed
// job resubmits itself from its OnDone, so the machine reaches a fixed
// point — 8 busy nodes, a stable launcher queue, a stable pending-event
// set — and then cycles schedule→dispatch→complete indefinitely. The
// returned step function advances the simulation by one virtual window.
func steadyState(rec *trace.Recorder) func() {
	sim := hpc.NewSim()
	if rec != nil {
		rec.Preallocate()
		sim.SetRecorder(rec)
	}
	svc := NewServiceWithOptions(sim, 8, Options{NoUtilizationSeries: true})
	for i := 0; i < 16; i++ {
		job := &Job{AgentID: i % 4, Key: "steady", Duration: float64(3 + i%5)}
		job.OnDone = func(j *Job) {
			j.Attempts = 0
			svc.Submit(j)
		}
		svc.Submit(job)
	}
	window := 0.0
	return func() {
		window += 200
		sim.Run(window)
	}
}

// TestShortSimAllocs is the simulator counterpart of train's
// TestShortTrainStepAllocs: once warm, a full schedule→dispatch→complete
// cycle — event-queue push/pop, the jobEvent free list, the launcher
// ring, the bounded job table, and per-event trace emission — performs zero
// heap allocations, with a recorder attached (preallocated ring, including
// its wrap-around regime) and detached alike. This is the property that
// lets the simbench experiment sustain millions of events without GC
// pressure.
func TestShortSimAllocs(t *testing.T) {
	cases := []struct {
		name string
		rec  *trace.Recorder
	}{
		{"recorder-detached", nil},
		// Small ring: the warmup fills and wraps it, so the measured runs
		// exercise the overwrite path, not just append-into-capacity.
		{"recorder-attached", trace.NewRecorder(1 << 12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			step := steadyState(tc.rec)
			// Generous warmup: lets the job table's map internals, the
			// event free lists, and the queue ring settle.
			for i := 0; i < 50; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Fatalf("steady-state simulation window allocated %.1f times, want 0", allocs)
			}
		})
	}
}
