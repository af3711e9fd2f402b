package experiments

import (
	"encoding/json"
	"fmt"
	"time"

	"nasgo/internal/campaign"
)

// TortureResult is the crash-point torture experiment (DESIGN.md §8): a
// simulated power cut at every mutating filesystem operation of a small
// deterministic campaign, honest disk then fsync-lying disk.
type TortureResult struct {
	Spec   campaign.Spec
	Report *campaign.TortureReport
}

// Torture records the campaign once over the in-memory filesystem, replays
// its operation tape into a cut at each index, reopens the surviving bytes
// and resumes — old-or-new recovery and a byte-identical final log at every
// point. A violated invariant panics, like every other experiment's fatal
// error. Larger presets stretch the walltime chain (more allocations = more
// crash points); the per-allocation work stays scaled-down.
func Torture(sc Scale) *TortureResult {
	spec := campaign.Spec{
		Bench:         "Combo",
		Strategy:      "a2c",
		Agents:        2,
		Workers:       2,
		Horizon:       sc.Horizon / 9,
		Walltime:      100,
		Seed:          99,
		RealEpochs:    1,
		RealBatchSize: 64,
	}
	rep, err := campaign.TortureCampaign(spec,
		campaign.Options{BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond})
	if err != nil {
		panic(fmt.Sprintf("experiments: torture: invariant violated: %v", err))
	}
	return &TortureResult{Spec: spec, Report: rep}
}

// Render prints the enumeration tallies. Nothing in it is wall-clock, so
// two runs render identically.
func (r *TortureResult) Render() string {
	rep := r.Report
	repJSON, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf(`crash-point torture: all invariants held (%s %s, %d agents × %d workers, horizon %.0f, walltime %.0f)

%d-op tape, %d crash points enumerated twice (honest + fsync-lying disk).
Every cut left a store that reopened with committed state intact, and every
resume replayed to a final log byte-identical to the uninterrupted run.
%d distinct surviving images (%d live resumes, the rest memoized);
%d cuts predate the first durable meta; %d lying-disk cuts were detected
and rejected, %d still resumed identically.

%s
`, r.Spec.Bench, r.Spec.Strategy, r.Spec.Agents, r.Spec.Workers, r.Spec.Horizon, r.Spec.Walltime,
		rep.TapeLen, rep.CrashPoints, rep.DistinctImages, rep.LiveResumes,
		rep.EmptyStores, rep.LieUnreadable, rep.LieResumed, repJSON)
}
