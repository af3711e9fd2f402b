package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"nasgo/internal/balsam"
	"nasgo/internal/hpc"
	"nasgo/internal/report"
	"nasgo/internal/rng"
	"nasgo/internal/trace"
)

// SimbenchRow is one throughput measurement of the discrete-event core: a
// synthetic Balsam machine at a fixed node count driven to a fixed number
// of simulator events.
type SimbenchRow struct {
	// Nodes is the virtual node count; Agents the number of synthetic
	// submitters (each keeps a small backlog queued so nodes never idle).
	Nodes, Agents int
	// Faulted marks the row that runs under the paper's fault model
	// (node failures, retries, stale completion events).
	Faulted bool
	// Events is the number of simulator events processed in the measured
	// phase (sum of Sim.Run return values).
	Events int64
	// WallSeconds is the host wall-clock duration of the measured phase;
	// EventsPerSec is Events/WallSeconds.
	WallSeconds, EventsPerSec float64
	// BytesPerEvent and AllocsPerEvent are the measured-phase heap traffic
	// (runtime.MemStats TotalAlloc/Mallocs deltas) divided by Events —
	// ~zero once the machine is warm, which is what the calendar queue's
	// free list, balsam's event pool, and the preallocated trace ring buy.
	BytesPerEvent, AllocsPerEvent float64
	// VirtualSeconds is how far the virtual clock advanced while measuring;
	// Finished and Retries summarize the job traffic behind the events.
	VirtualSeconds float64
	Finished       int
	Retries        int
}

// SimbenchResult is the simulator-core throughput experiment (DESIGN.md
// §14): millions of schedule→dispatch→complete cycles at Theta-like node
// counts, measuring events/sec and bytes/event on the host. Unlike every
// other experiment here it benchmarks the machinery itself, not the search;
// wall-clock timing is pure measurement and never feeds the virtual
// schedule.
type SimbenchResult struct {
	Rows []SimbenchRow
	// TargetEvents is the per-row event budget at this scale.
	TargetEvents int64
	// MaxProcs records the host parallelism (the simulator is
	// single-threaded; this is context, not a knob).
	MaxProcs int
}

// simbenchRun drives one row: nodes virtual nodes, agents synthetic
// submitters whose jobs resubmit themselves forever, run until target
// simulator events have been processed after a warmup phase.
func simbenchRun(nodes, agents int, faulted bool, target int64, seed uint64) SimbenchRow {
	sim := hpc.NewSim()
	rec := trace.NewRecorder(1 << 16)
	rec.Preallocate()
	sim.SetRecorder(rec)

	opts := balsam.Options{NoUtilizationSeries: true}
	if faulted {
		opts.Faults = hpc.FaultModel{MTBF: 400, MTTR: 120, StragglerProb: 0.1, StragglerSlowdown: 2, Seed: seed}
		// The fault timeline is pre-generated over FaultHorizon, so size it
		// to just cover the virtual span the run will reach (events arrive
		// at roughly nodes/meanDuration per virtual second) — fault pressure
		// stays constant throughout without an absurd upfront timeline.
		perVirtualSec := float64(nodes) / 13.0
		opts.FaultHorizon = 2*1.1*float64(target)/perVirtualSec + 2000
	}
	svc := balsam.NewServiceWithOptions(sim, nodes, opts)

	// Each agent keeps a backlog of 4 jobs beyond its share of the nodes,
	// so the launcher queue is never empty and every completion immediately
	// redispatches. Durations come from one rng stream, redrawn at every
	// resubmit; the draw happens inside OnDone, on the virtual timeline.
	r := rng.New(seed)
	inflight := nodes + 4*agents
	for i := 0; i < inflight; i++ {
		job := &balsam.Job{AgentID: i % agents, Key: "simbench", Duration: 3 + float64(20*r.Float64())}
		job.OnDone = func(j *balsam.Job) {
			j.Attempts = 0
			j.Duration = 3 + float64(20*r.Float64())
			svc.Submit(j)
		}
		svc.Submit(job)
	}

	// Warmup: let the free lists, the launcher ring, the job table, and the
	// trace ring reach steady state before measuring.
	window := 50.0
	now := window
	for warm := int64(0); warm < target/10; {
		warm += int64(sim.Run(now))
		now += window
	}
	baseFinished, baseRetries := svc.Finished(), svc.Retries()
	startVirtual := sim.Now()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events int64
	for events < target {
		events += int64(sim.Run(now))
		now += window
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	row := SimbenchRow{
		Nodes: nodes, Agents: agents, Faulted: faulted,
		Events: events, WallSeconds: wall,
		VirtualSeconds: sim.Now() - startVirtual,
		Finished:       svc.Finished() - baseFinished,
		Retries:        svc.Retries() - baseRetries,
	}
	if wall > 0 {
		row.EventsPerSec = float64(events) / wall
	}
	row.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	row.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
	return row
}

// Simbench measures the discrete-event core's throughput at 1,024–16,384
// virtual nodes with hundreds of agents, fault-free and faulted. The
// per-row event budget scales with the preset (quick ≥ 1.2M events).
func Simbench(sc Scale) *SimbenchResult {
	target := int64(400_000) * int64(sc.Replications)
	if target < 1_200_000 {
		target = 1_200_000
	}
	out := &SimbenchResult{TargetEvents: target, MaxProcs: runtime.GOMAXPROCS(0)}
	configs := []struct {
		nodes, agents int
		faulted       bool
	}{
		{1024, 256, false},
		{4096, 256, false},
		{4096, 256, true},
		{16384, 512, false},
	}
	for _, c := range configs {
		out.Rows = append(out.Rows, simbenchRun(c.nodes, c.agents, c.faulted, target, sc.Seed))
	}
	return out
}

// Render prints the throughput table.
func (r *SimbenchResult) Render() string {
	var b strings.Builder
	b.WriteString("Simulator-core throughput — calendar-queue DES at Theta-like node counts (simbench)\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		faults := "none"
		if row.Faulted {
			faults = "paper"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%d", row.Agents),
			faults,
			fmt.Sprintf("%d", row.Events),
			fmt.Sprintf("%.2f", row.WallSeconds),
			fmt.Sprintf("%.0f", row.EventsPerSec),
			fmt.Sprintf("%.2f", row.BytesPerEvent),
			fmt.Sprintf("%.4f", row.AllocsPerEvent),
			fmt.Sprintf("%d", row.Finished),
			fmt.Sprintf("%d", row.Retries),
		})
	}
	b.WriteString(report.Table(
		[]string{"nodes", "agents", "faults", "events", "wall s", "events/s", "B/event", "allocs/event", "finished", "retries"},
		rows))
	fmt.Fprintf(&b, "per-row event budget: %d; host GOMAXPROCS: %d (simulator is single-threaded)\n",
		r.TargetEvents, r.MaxProcs)
	return b.String()
}
