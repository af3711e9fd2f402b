package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nasgo/internal/analytics"
	"nasgo/internal/fsim"
	"nasgo/internal/report"
	"nasgo/internal/search"
)

// RestartResult is the restart-chain experiment: one long uninterrupted
// search versus the same search split across walltime-bounded allocations,
// each restart going through a checkpoint file on disk — the scheduler
// reality the paper's 6-hour Theta allocations impose on a longer campaign.
type RestartResult struct {
	Uninterrupted *search.Log
	Chained       *search.Log
	// Walltime is the per-allocation budget (virtual seconds) the chained
	// run was bounded by.
	Walltime float64
	// Allocations is how many allocations the chained run needed.
	Allocations int
	// CheckpointBytes is the on-disk size of each intermediate checkpoint.
	CheckpointBytes []int
	// Identical reports whether the two logs render to byte-identical JSON
	// (after clearing the Walltime knob, the only intended difference).
	Identical bool
}

// Restart runs the A3C Combo search once uninterrupted (shared with the
// Fig 4/5 memoized runs) and once split across three walltime-bounded
// allocations chained through checkpoint files in a private temp directory.
// (To chain any search by hand, with chosen walltime, checkpoint path and
// trace: nas-search -walltime W -allocations 0 -checkpoint F -trace T.)
func Restart(sc Scale) *RestartResult {
	bench := benchFor("Combo", sc.Seed)
	sp := spaceFor(bench, "small")
	plain := runSearch("Combo", "small", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)

	cfg := sc.searchCfg(search.A3C, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
	// Bound each allocation to a third of the observed run length (ceil'd
	// by the 2.8 divisor), so the chain needs three allocations even when
	// the uninterrupted run converged well before the horizon.
	cfg.Walltime = plain.EndTime / 2.8

	out := &RestartResult{Uninterrupted: plain, Walltime: cfg.Walltime}
	dir, err := os.MkdirTemp("", "nasgo-restart-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Every allocation gets a freshly built benchmark and the checkpoint as
	// read back from disk — what a new process would have.
	var ck *search.Checkpoint
	for {
		log, next, err := search.Allocate(benchFor("Combo", sc.Seed), sp, cfg, ck, nil)
		if err != nil {
			panic(err)
		}
		out.Allocations++
		out.Chained = log
		if next == nil {
			break
		}
		path := filepath.Join(dir, fmt.Sprintf("alloc-%03d.ckpt", out.Allocations))
		if err := next.WriteFileFS(fsim.OS, path); err != nil {
			panic(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			panic(err)
		}
		out.CheckpointBytes = append(out.CheckpointBytes, int(info.Size()))
		if ck, err = search.LoadCheckpointFS(fsim.OS, path); err != nil {
			panic(err)
		}
	}

	normalized := *out.Chained
	normalized.Config.Walltime = plain.Config.Walltime
	a, aerr := json.Marshal(plain)
	b, berr := json.Marshal(&normalized)
	if aerr != nil || berr != nil {
		panic(fmt.Sprintf("experiments: marshal restart logs: %v %v", aerr, berr))
	}
	out.Identical = bytes.Equal(a, b)
	return out
}

// Render prints the side-by-side summary and the equivalence verdict.
func (r *RestartResult) Render() string {
	var b strings.Builder
	b.WriteString("Restart chain — one long run vs walltime-bounded allocations (Combo small, A3C)\n")
	row := func(label string, log *search.Log, allocs string) []string {
		s := analytics.Summarize(log.Results)
		return []string{
			label, allocs,
			fmt.Sprintf("%d", len(log.Results)),
			fmt.Sprintf("%d", s.Evaluations),
			fmt.Sprintf("%.4f", s.BestReward),
			fmt.Sprintf("%.0f", log.EndTime),
			fmt.Sprintf("%v", log.Converged),
		}
	}
	rows := [][]string{
		row("uninterrupted", r.Uninterrupted, "1"),
		row("chained", r.Chained, fmt.Sprintf("%d", r.Allocations)),
	}
	b.WriteString(report.Table(
		[]string{"run", "allocs", "results", "evals", "best", "end s", "converged"}, rows))
	sizes := make([]string, len(r.CheckpointBytes))
	for i, n := range r.CheckpointBytes {
		sizes[i] = fmt.Sprintf("%.1f KiB", float64(n)/1024)
	}
	fmt.Fprintf(&b, "walltime per allocation: %.0f virtual s; checkpoints written: %d (%s)\n",
		r.Walltime, len(r.CheckpointBytes), strings.Join(sizes, ", "))
	if r.Identical {
		b.WriteString("logs bit-identical across the restart chain: YES\n")
	} else {
		b.WriteString("logs bit-identical across the restart chain: NO — resume equivalence violated\n")
	}
	return b.String()
}
