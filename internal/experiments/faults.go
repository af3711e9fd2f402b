package experiments

import (
	"fmt"
	"strings"

	"nasgo/internal/analytics"
	"nasgo/internal/hpc"
	"nasgo/internal/report"
	"nasgo/internal/search"
)

// FaultLevel is one arm of the resilience sweep, expressed relative to the
// run horizon so the sweep is meaningful at every scale preset: MTBF is
// Horizon/Rate per node (Rate = expected failures per node per run).
type FaultLevel struct {
	Label string
	// Rate is the expected node failures per node over the horizon;
	// 0 is the perfect machine.
	Rate float64
}

// FaultLevels is the sweep the resilience experiment runs.
var FaultLevels = []FaultLevel{
	{Label: "none", Rate: 0},
	{Label: "low", Rate: 0.5},
	{Label: "med", Rate: 1},
	{Label: "high", Rate: 4},
}

// FaultRun is one (strategy, fault level) search.
type FaultRun struct {
	Strategy string
	Level    FaultLevel
	Log      *search.Log
}

// FaultsResult is the resilience experiment: reward and utilization versus
// fault rate for each strategy — the paper's asynchrony argument (§5,
// Figs. 5/6/9) re-examined on an imperfect machine.
type FaultsResult struct {
	Runs []FaultRun
}

// Faults sweeps the fault levels over A3C, A2C, and RDM on the Combo small
// space. The zero-fault arm reuses the memoized Fig 4/5 runs.
func Faults(sc Scale) *FaultsResult {
	out := &FaultsResult{}
	bench := benchFor("Combo", sc.Seed)
	sp := spaceFor(bench, "small")
	for _, level := range FaultLevels {
		for _, strat := range Strategies {
			var log *search.Log
			if level.Rate == 0 {
				log = runSearch("Combo", "small", strat, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
			} else {
				cfg := sc.searchCfg(strat, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
				cfg.Faults = hpc.FaultModel{
					MTBF:              sc.Horizon / level.Rate,
					MTTR:              sc.Horizon / 24,
					StragglerProb:     0.1,
					StragglerSlowdown: 3,
				}
				log = search.Run(bench, sp, cfg)
			}
			out.Runs = append(out.Runs, FaultRun{Strategy: strat, Level: level, Log: log})
		}
	}
	return out
}

// Run returns the log for a (strategy, level label) pair.
func (r *FaultsResult) Run(strategy, label string) *search.Log {
	for _, run := range r.Runs {
		if run.Strategy == strategy && run.Level.Label == label {
			return run.Log
		}
	}
	panic(fmt.Sprintf("experiments: no faults run %s/%s", strategy, label))
}

// MeanUtilization is the active-run mean utilization of one arm.
func (r *FaultsResult) MeanUtilization(strategy, label string) float64 {
	return meanUtilization(r.Run(strategy, label))
}

// Degradation returns how much of a strategy's zero-fault utilization is
// lost at the given fault level (0 = unaffected, 1 = all of it). A3C's
// asynchrony should lose less than A2C's barrier at every nonzero level.
func (r *FaultsResult) Degradation(strategy, label string) float64 {
	base := r.MeanUtilization(strategy, "none")
	if base == 0 {
		return 0
	}
	return (base - r.MeanUtilization(strategy, label)) / base
}

// Render prints the per-arm summary table plus the A3C-vs-A2C degradation
// comparison.
func (r *FaultsResult) Render() string {
	var b strings.Builder
	b.WriteString("Resilience — reward and utilization vs fault rate (Combo small space)\n")
	rows := make([][]string, 0, len(r.Runs))
	for _, run := range r.Runs {
		s := analytics.Summarize(run.Log.Results)
		rows = append(rows, []string{
			run.Level.Label,
			strings.ToUpper(run.Strategy),
			fmt.Sprintf("%.3f", s.BestReward),
			fmt.Sprintf("%.3f", r.MeanUtilization(run.Strategy, run.Level.Label)),
			fmt.Sprintf("%d", run.Log.NodeFailures),
			fmt.Sprintf("%d", run.Log.Retries),
			fmt.Sprintf("%d", run.Log.FailedEvals),
			fmt.Sprintf("%d", run.Log.PartialRounds),
		})
	}
	b.WriteString(report.Table(
		[]string{"faults", "strategy", "best", "util", "node-fail", "retries", "failed", "partial"}, rows))
	for _, level := range FaultLevels {
		if level.Rate == 0 {
			continue
		}
		a3c := r.Degradation(search.A3C, level.Label)
		a2c := r.Degradation(search.A2C, level.Label)
		verdict := "A3C degrades more gracefully"
		if a3c > a2c {
			verdict = "A2C degraded less here"
		}
		fmt.Fprintf(&b, "%s: utilization lost A3C=%.1f%% A2C=%.1f%% — %s\n",
			level.Label, 100*a3c, 100*a2c, verdict)
	}
	return b.String()
}
