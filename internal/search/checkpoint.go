// Checkpoint/restore: walltime-bounded allocations.
//
// The paper's 6-hour searches run inside scheduler allocations on Theta; a
// real campaign outlives any single allocation, so the infrastructure must
// stop cleanly at the walltime boundary and continue in the next allocation
// as if nothing happened. nasgo implements this as an exact cut of the
// discrete-event simulation:
//
//   - An allocation processes every event with virtual time ≤ the walltime
//     boundary (hpc.Sim.RunUntil), so the cut always falls between events,
//     never inside one. All still-pending events lie strictly beyond the
//     boundary. A plain run is the allocation whose boundary is +Inf.
//   - The Checkpoint then captures the complete search state: per-agent
//     policy/value parameters and Adam moments (rl, optim), every RNG
//     stream position (rng), the reward-estimation caches and in-flight
//     task records (evaluator), queued/running/backing-off Balsam job
//     states plus the not-yet-injected fault timeline (balsam), the
//     parameter-server barrier/window/deliveries (ps), each agent's control
//     phase, and the partial Log. Pending events are read from the simulator
//     (hpc.Sim.Pending), never stored beside it: each component keeps the
//     absolute fire time and original sequence number of the handlers it
//     recognises as its own, and capture panics on an event nobody claimed.
//   - The next allocation rebuilds every component through the same
//     constructor code paths (allocate; replaying the construction-time RNG
//     draws), overwrites their state, re-enqueues the rebuilt handlers in
//     (time, seq) order (hpc.Sim.Resume), and continues to the next
//     boundary.
//
// Because the cut is exact — no draining, no reordering, no re-drawn
// randomness — a run chained across any number of allocations produces a
// log bit-identical to the uninterrupted run, including under node
// failures and stragglers.
//
// Capturing pending events as (time, seq) data rather than queue internals
// also makes checkpoints transparent to the simulator's engine: a
// checkpoint written by any earlier engine of hpc.Sim restores into the
// current one with bit-identical continuation, because only the pop order
// is contractual. TestShortSimQueueGoldenTraces pins this with a committed
// checkpoint written by the original container/heap engine.
package search

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/hpc"
	"nasgo/internal/ps"
	"nasgo/internal/rl"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// EvoAgentState is an EVO agent's population; Config.EvoPopulation caps it.
type EvoAgentState struct {
	Population []EvoMemberState
	Rand       rng.State
}

// AgentState is one agent's complete checkpointed state.
type AgentState struct {
	Phase    int
	CurEpoch int
	Episodes []rl.Episode
	FailedEp []bool
	Pending  int
	Cached   int
	// PendingJobs maps episode index → in-flight Balsam job ID (0 when the
	// result has already been delivered).
	PendingJobs []int64
	// PendingAvg is the averaged gradient awaiting its UpdateCost event
	// (phaseUpdate only).
	PendingAvg []float64
	// EvTime/EvSeq locate the agent's own pending event (UpdateCost delay
	// or RDM/EVO round wait) in the original event queue.
	EvTime float64
	EvSeq  int64
	Rand   rng.State
	Ctrl   *rl.ControllerState
	Evo    *EvoAgentState
}

// Checkpoint is the complete state of an interrupted search: everything
// needed to continue the run bit-for-bit in a later allocation. Each record
// is stored in its live type, and a count the records already hold (cache
// hits, failed estimations) is counted from them, never stored beside them.
type Checkpoint struct {
	Bench     string
	SpaceName string
	// Config is the fully defaulted configuration, including the derived
	// fault seed, so a resume never re-derives anything differently.
	Config Config

	// Now is the virtual time of the cut (the last processed event);
	// Boundary is the walltime boundary the allocation ran to. The next
	// allocation runs to Boundary + Config.Walltime.
	Now      float64
	Boundary float64
	// Allocations counts walltime allocations completed so far.
	Allocations int

	Converged     bool
	EndTime       float64
	CachedRounds  []int
	PartialRounds int

	Agents  []AgentState
	Eval    *evaluator.State
	Service *balsam.State
	PS      *ps.State

	// Partial is the analytics log as of the cut — the same Log an
	// uninterrupted run would report if it ended here.
	Partial *Log
}

// Allocate runs one walltime allocation of a search, with a trace recorder
// attached to the allocation's machine (rec may be nil). ck == nil starts from
// cfg; ck != nil continues the checkpointed search — ck.Config governs, cfg is
// ignored, and bench and sp must be the ones the checkpoint was taken from. It
// returns (finalLog, nil, nil) when the search completed within the
// allocation, or (partialLog, checkpoint, nil) at the walltime boundary; pass
// the checkpoint back (possibly in a later process, via
// WriteFileFS/LoadCheckpointFS) to continue. Allocate never writes through
// ck, so a failed continuation can be retried from the same value. With
// Walltime == 0 the boundary is +Inf and the one allocation is the whole
// run. Handing every allocation of a chain the same recorder makes the
// trace concatenate seamlessly: apart from the CatCkpt cut/resume marks, the
// combined event stream is byte-identical to an uninterrupted run's (the
// golden-trace test pins this).
func Allocate(bench *candle.Benchmark, sp *space.Space, cfg Config, ck *Checkpoint, rec *trace.Recorder) (*Log, *Checkpoint, error) {
	return allocate(bench, sp, cfg, ck, rec, nil)
}

// restore overwrites a freshly constructed runner with the checkpoint's
// state and re-enqueues the captured event frontier: events holds the
// restored service's share, to which the parameter server's deliveries and
// the agents' own timers are added.
func (r *runner) restore(ck *Checkpoint, events []hpc.Event) error {
	r.endTime = ck.EndTime
	r.cachedRounds = append([]int(nil), ck.CachedRounds...)
	r.converged = ck.Converged
	r.partialRounds = ck.PartialRounds
	r.allocations = ck.Allocations

	if len(ck.Agents) != len(r.agents) {
		return fmt.Errorf("search: checkpoint has %d agents, config builds %d", len(ck.Agents), len(r.agents))
	}
	for i := range ck.Agents {
		if err := r.agents[i].restoreState(&ck.Agents[i]); err != nil {
			return err
		}
	}

	if r.usesPS() {
		if ck.PS == nil {
			return fmt.Errorf("search: checkpoint for strategy %q is missing parameter-server state", r.cfg.Strategy)
		}
		waiter := func(agentID int) func([]float64) { return r.agents[agentID].gradAveraged }
		psrv, psEvents := ps.RestoreServer(r.sim, r.psConfig(), ck.PS, waiter)
		r.psrv = psrv
		events = append(events, psEvents...)
	}

	// Re-attach the delivery callbacks of in-flight reward estimations.
	relinked := 0
	for _, a := range r.agents {
		for i, id := range a.pendingJobs {
			if id != 0 {
				r.eval.Relink(id, a.evalDone(i))
				relinked++
			}
		}
	}
	if relinked != r.eval.InflightCount() {
		return fmt.Errorf("search: checkpoint has %d in-flight evaluations but agents reference %d", r.eval.InflightCount(), relinked)
	}

	// Agent-owned timers (UpdateCost delays, round waits).
	for i, a := range r.agents {
		if a.phase == phaseUpdate || a.phase == phaseRoundWait {
			events = append(events, hpc.Event{Time: ck.Agents[i].EvTime, Seq: ck.Agents[i].EvSeq, Handler: a})
		}
	}
	r.sim.Resume(events)
	return nil
}

// capture snapshots the runner into a Checkpoint. No RNG draws, no event
// scheduling — so taking a checkpoint never perturbs the run. Its only
// mutation is the evaluator draining its worker pool (joining pending
// training futures), which moves host work, never virtual-time state: the
// captured bytes are identical at every Eval.Workers setting.
func (r *runner) capture() *Checkpoint {
	r.sim.Recorder().Emit(trace.Event{Cat: trace.CatCkpt, Name: trace.EvCut,
		Node: trace.None, Agent: trace.None, Value: float64(r.allocations + 1)})
	ck := &Checkpoint{
		Bench:         r.bench.Name,
		SpaceName:     r.space.Name,
		Config:        r.cfg,
		Now:           r.sim.Now(),
		Boundary:      r.boundary,
		Allocations:   r.allocations + 1,
		Converged:     r.converged,
		EndTime:       r.endTime,
		CachedRounds:  append([]int(nil), r.cachedRounds...),
		PartialRounds: r.partialRounds,
		Eval:          r.eval.CaptureState(),
		Service:       r.service.CaptureState(),
	}
	for _, a := range r.agents {
		ck.Agents = append(ck.Agents, a.captureState())
	}
	if r.psrv != nil {
		ck.PS = r.psrv.CaptureState()
	}
	// Every pending event must be carried by exactly one component's state:
	// an event nobody claimed would silently not exist after the resume.
	pending := r.sim.Pending()
	claimed := len(ck.Service.Stale) + len(ck.Service.PendingTimeline)
	for _, job := range ck.Service.Jobs {
		if job.HasFire {
			claimed++
		}
	}
	if ck.PS != nil {
		claimed += len(ck.PS.Inflight)
	}
	for _, ev := range pending {
		if a, ok := ev.Handler.(*agent); ok {
			ck.Agents[a.id].EvTime, ck.Agents[a.id].EvSeq = ev.Time, ev.Seq
			claimed++
		}
	}
	if claimed != len(pending) {
		panic(fmt.Sprintf("search: checkpoint cut at t=%g carries %d pending events, the simulator holds %d", ck.Now, claimed, len(pending)))
	}
	ck.Partial = r.buildLog()
	return ck
}

func (a *agent) captureState() AgentState {
	st := AgentState{
		Phase:       a.phase,
		CurEpoch:    a.curEpoch,
		FailedEp:    append([]bool(nil), a.failedEp...),
		Pending:     a.pending,
		Cached:      a.cached,
		PendingJobs: append([]int64(nil), a.pendingJobs...),
		PendingAvg:  append([]float64(nil), a.pendingAvg...),
		Rand:        a.rand.State(),
	}
	for _, ep := range a.eps {
		st.Episodes = append(st.Episodes, copyEpisode(*ep))
	}
	if a.ctrl != nil {
		st.Ctrl = a.ctrl.CaptureState()
	}
	if a.evo != nil {
		st.Evo = &EvoAgentState{Population: copyPopulation(a.evo.population), Rand: a.evo.rand.State()}
	}
	return st
}

// copyEpisode and copyPopulation deep-copy records between an agent and a
// checkpoint, so neither ever writes into the other's slices: Allocate never
// writes through the checkpoint it continues.
func copyEpisode(ep rl.Episode) rl.Episode {
	ep.Choices = append([]int(nil), ep.Choices...)
	ep.OldLogP = append([]float64(nil), ep.OldLogP...)
	return ep
}

func copyPopulation(pop []EvoMemberState) []EvoMemberState {
	var out []EvoMemberState
	for _, m := range pop {
		out = append(out, EvoMemberState{Choices: append([]int(nil), m.Choices...), Reward: m.Reward})
	}
	return out
}

func (a *agent) restoreState(st *AgentState) error {
	a.phase = st.Phase
	a.curEpoch = st.CurEpoch
	a.failedEp = append([]bool(nil), st.FailedEp...)
	a.pending = st.Pending
	a.cached = st.Cached
	a.pendingJobs = append([]int64(nil), st.PendingJobs...)
	if len(st.PendingAvg) > 0 {
		a.pendingAvg = append([]float64(nil), st.PendingAvg...)
	}
	a.rand.SetState(st.Rand)
	a.eps = nil
	for _, ep := range st.Episodes {
		ep = copyEpisode(ep)
		a.eps = append(a.eps, &ep)
	}
	if st.Ctrl != nil {
		if a.ctrl == nil {
			return fmt.Errorf("search: checkpoint agent %d carries controller state but strategy %q builds none", a.id, a.r.cfg.Strategy)
		}
		if err := a.ctrl.RestoreState(st.Ctrl); err != nil {
			return fmt.Errorf("search: agent %d: %w", a.id, err)
		}
	}
	if st.Evo != nil {
		if a.evo == nil {
			return fmt.Errorf("search: checkpoint agent %d carries EVO state but strategy %q builds none", a.id, a.r.cfg.Strategy)
		}
		a.evo.rand.SetState(st.Evo.Rand)
		a.evo.population = copyPopulation(st.Evo.Population)
	}
	return nil
}

// Checkpoint file container parameters (see internal/ckpt for the layout).
const (
	checkpointMagic   = "nasgockp"
	checkpointVersion = 1
)

// WriteFileFS atomically persists the checkpoint: staged into a temp file,
// framed with a versioned header and SHA-256 checksum, renamed into place.
// A crash mid-write leaves any previous checkpoint at path intact.
func (ck *Checkpoint) WriteFileFS(fsys fsim.FS, path string) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return fmt.Errorf("search: encode checkpoint: %w", err)
	}
	return ckpt.WriteFileFS(fsys, path, checkpointMagic, checkpointVersion, buf.Bytes())
}

// LoadCheckpointFS reads a checkpoint written by WriteFileFS. Truncated or
// corrupted files are rejected with descriptive errors.
func LoadCheckpointFS(fsys fsim.FS, path string) (*Checkpoint, error) {
	payload, _, err := ckpt.ReadFileFS(fsys, path, checkpointMagic, checkpointVersion)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("search: decode checkpoint %s: %w", path, err)
	}
	if err := ck.Config.Validate(); err != nil {
		return nil, fmt.Errorf("search: checkpoint %s: invalid config: %w", path, err)
	}
	if ck.Bench == "" || ck.SpaceName == "" {
		return nil, fmt.Errorf("search: checkpoint %s: missing benchmark or space name", path)
	}
	if len(ck.Agents) != ck.Config.Agents {
		return nil, fmt.Errorf("search: checkpoint %s: %d agent states for %d configured agents", path, len(ck.Agents), ck.Config.Agents)
	}
	if ck.Eval == nil || ck.Service == nil {
		return nil, fmt.Errorf("search: checkpoint %s: missing evaluator or service state", path)
	}
	return &ck, nil
}
