package experiments

import (
	"fmt"
	"math"
	"strings"

	"nasgo/internal/analytics"
	"nasgo/internal/posttrain"
	"nasgo/internal/report"
	"nasgo/internal/search"
)

// trajBucket is the time bucket (seconds) for reward/utilization series.
const trajBucket = 300

// StrategyRun pairs a strategy label with its search log.
type StrategyRun struct {
	Strategy string
	Log      *search.Log
}

// Fig4Result reproduces Figure 4: search trajectories (reward over time)
// for A3C, A2C, and RDM on one benchmark's small search space.
type Fig4Result struct {
	Bench string
	Runs  []StrategyRun
}

// Fig4 runs (or recalls) the three strategies on the benchmark's small
// space.
func Fig4(benchName string, sc Scale) *Fig4Result {
	r := &Fig4Result{Bench: benchName}
	for _, strat := range Strategies {
		bench := benchFor(benchName, sc.Seed)
		log := runSearch(benchName, "small", strat, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
		r.Runs = append(r.Runs, StrategyRun{Strategy: strat, Log: log})
	}
	return r
}

// MeanRewardLate returns the mean reward over the last half of the run —
// the "has the policy learned" statistic behind Fig 4's trajectories.
func (r *Fig4Result) MeanRewardLate(strategy string) float64 {
	for _, run := range r.Runs {
		if run.Strategy != strategy {
			continue
		}
		half := run.Log.EndTime / 2
		var sum float64
		n := 0
		for _, res := range run.Log.Results {
			if res.FinishTime >= half {
				sum += res.Reward
				n++
			}
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	return math.NaN()
}

// Render draws the Figure 4 panel for this benchmark: the bucketed mean
// reward of the evaluations finishing in each window, which is what the
// paper's trajectory plots show (the current policy's quality over time).
func (r *Fig4Result) Render() string {
	var series []report.Series
	for _, run := range r.Runs {
		traj := analytics.Trajectory(run.Log.Results, trajBucket, run.Log.EndTime)
		xs := make([]float64, len(traj))
		ys := make([]float64, len(traj))
		for i, p := range traj {
			xs[i] = p.Time / 60
			ys[i] = p.Mean
		}
		series = append(series, report.Series{Name: strings.ToUpper(run.Strategy), X: xs, Y: ys})
	}
	metric := "Reward (R2)"
	if r.Bench == "NT3" {
		metric = "Reward (ACC)"
	}
	out := report.Chart(fmt.Sprintf("Fig 4 — %s small space: best reward over time", r.Bench),
		"time (min)", metric, series, 70, 16)
	for _, run := range r.Runs {
		s := analytics.Summarize(run.Log.Results)
		out += fmt.Sprintf("  %-4s best=%.3f evals=%d cacheHits=%d unique=%d converged=%v end=%.0fmin\n",
			strings.ToUpper(run.Strategy), s.BestReward, s.Evaluations, s.CacheHits,
			s.UniqueArchs, run.Log.Converged, run.Log.EndTime/60)
	}
	// Paper shape: the learned policy's late rewards beat random search's.
	out += fmt.Sprintf("  a3c_minus_rdm_late=%+.3f (mean reward over the last half of the run, A3C − RDM)\n",
		r.MeanRewardLate(search.A3C)-r.MeanRewardLate(search.RDM))
	return out
}

// Fig5Result reproduces Figure 5: node utilization over time for the same
// three runs.
type Fig5Result struct {
	Bench string
	Runs  []StrategyRun
}

// Fig5 reuses Fig 4's searches.
func Fig5(benchName string, sc Scale) *Fig5Result {
	f4 := Fig4(benchName, sc)
	return &Fig5Result{Bench: benchName, Runs: f4.Runs}
}

// meanUtilization averages a run's utilization series over the active part
// of the run only (buckets up to EndTime).
func meanUtilization(log *search.Log) float64 {
	var sum float64
	n := 0
	limit := int(log.EndTime/log.UtilBucket) + 1
	for i, u := range log.Utilization {
		if i >= limit {
			break
		}
		sum += u
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanUtilization returns the run-wide mean utilization for a strategy.
func (r *Fig5Result) MeanUtilization(strategy string) float64 {
	for _, run := range r.Runs {
		if run.Strategy == strategy {
			return meanUtilization(run.Log)
		}
	}
	return math.NaN()
}

// Render draws the Figure 5 panel.
func (r *Fig5Result) Render() string {
	var series []report.Series
	for _, run := range r.Runs {
		util := run.Log.Utilization
		xs := make([]float64, len(util))
		for i := range util {
			xs[i] = float64(i) * run.Log.UtilBucket / 60
		}
		series = append(series, report.Series{Name: strings.ToUpper(run.Strategy), X: xs, Y: util})
	}
	out := report.Chart(fmt.Sprintf("Fig 5 — %s small space: utilization over time", r.Bench),
		"time (min)", "utilization", series, 70, 14)
	for _, run := range r.Runs {
		out += fmt.Sprintf("  %-4s mean utilization=%.3f\n",
			strings.ToUpper(run.Strategy), r.MeanUtilization(run.Strategy))
	}
	return out
}

// Fig6Result reproduces Figure 6: Combo large-space search trajectory and
// utilization.
type Fig6Result struct {
	Runs []StrategyRun
}

// Fig6 runs the three strategies on the Combo large space.
func Fig6(sc Scale) *Fig6Result {
	r := &Fig6Result{}
	bench := benchFor("Combo", sc.Seed)
	for _, strat := range Strategies {
		log := runSearch("Combo", "large", strat, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
		r.Runs = append(r.Runs, StrategyRun{Strategy: strat, Log: log})
	}
	return r
}

// Render draws both Figure 6 panels.
func (r *Fig6Result) Render() string {
	f4 := &Fig4Result{Bench: "Combo", Runs: r.Runs}
	f5 := &Fig5Result{Bench: "Combo", Runs: r.Runs}
	return strings.Replace(f4.Render(), "Fig 4 — Combo small space", "Fig 6a — Combo large space", 1) +
		strings.Replace(f5.Render(), "Fig 5 — Combo small space", "Fig 6b — Combo large space", 1)
}

// PostResult holds a post-training comparison figure (Figs 7, 8, 10, 12).
type PostResult struct {
	Label   string
	Reports []*posttrain.Report
}

// Fig7 reproduces Figure 7: post-training of the top-K architectures from
// the small-space A3C runs of all three benchmarks.
func Fig7(sc Scale) *PostResult {
	r := &PostResult{Label: "Fig 7 — post-training, small spaces (A3C top architectures)"}
	for _, benchName := range []string{"Combo", "Uno", "NT3"} {
		bench := benchFor(benchName, sc.Seed)
		log := runSearch(benchName, "small", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
		rep := posttrain.Run(bench, spaceFor(bench, "small"), log.TopK(sc.TopK),
			posttrain.Config{Epochs: sc.PostEpochs, Seed: sc.Seed})
		r.Reports = append(r.Reports, rep)
	}
	return r
}

// Fig8 reproduces Figure 8: post-training for the large Combo and Uno
// spaces.
func Fig8(sc Scale) *PostResult {
	r := &PostResult{Label: "Fig 8 — post-training, large spaces (A3C top architectures)"}
	for _, benchName := range []string{"Combo", "Uno"} {
		bench := benchFor(benchName, sc.Seed)
		log := runSearch(benchName, "large", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
		rep := posttrain.Run(bench, spaceFor(bench, "large"), log.TopK(sc.TopK),
			posttrain.Config{Epochs: sc.PostEpochs, Seed: sc.Seed})
		r.Reports = append(r.Reports, rep)
	}
	return r
}

// Render prints one row per post-trained architecture plus summary counts,
// the tabular equivalent of the paper's ratio scatter plots.
func (r *PostResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Label)
	for _, rep := range r.Reports {
		fmt.Fprintf(&b, "\n[%s / %s] baseline: metric=%.3f params=%d trainTime=%.2fs\n",
			rep.Bench, rep.Space, rep.BaselineMetric, rep.BaselineParams, rep.BaselineTime)
		rows := make([][]string, 0, len(rep.Entries))
		var accWins, paramWins, timeWins int
		for _, e := range rep.Entries {
			rows = append(rows, []string{
				fmt.Sprintf("%d", e.Rank), report.F(e.EstReward), report.F(e.Metric),
				fmt.Sprintf("%d", e.Params), report.F(e.AccRatio), report.F(e.ParamsRatio),
				report.F(e.TimeRatio),
			})
			if e.AccRatio > 1 {
				accWins++
			}
			if e.ParamsRatio > 1 {
				paramWins++
			}
			if e.TimeRatio > 1 {
				timeWins++
			}
		}
		b.WriteString(report.Table(
			[]string{"rank", "est", "metric", "params", "acc-ratio", "Pb/P", "Tb/T"}, rows))
		fmt.Fprintf(&b, "ratios > 1: accuracy %d/%d, parameters %d/%d, training time %d/%d\n",
			accWins, len(rep.Entries), paramWins, len(rep.Entries), timeWins, len(rep.Entries))
	}
	return b.String()
}

// ScalingRun names one Fig 9 configuration.
type ScalingRun struct {
	Label   string
	Agents  int
	Workers int
	Log     *search.Log
}

// Fig9Result reproduces Figure 9: A3C utilization on the Combo large space
// under worker scaling and agent scaling.
type Fig9Result struct {
	Runs []ScalingRun
}

// Fig9 runs the five configurations: the 256-node reference, then 512/1024
// equivalents by worker scaling (more workers per agent) and agent scaling
// (more agents).
func Fig9(sc Scale) *Fig9Result {
	bench := benchFor("Combo", sc.Seed)
	fid := bench.RewardTrainFrac
	a, w := sc.BaseAgents, sc.BaseWorkers
	cfgs := []ScalingRun{
		{Label: "256", Agents: a, Workers: w},
		{Label: "512-w", Agents: a, Workers: 2 * w},
		{Label: "1024-w", Agents: a, Workers: 4 * w},
		{Label: "512-a", Agents: 2 * a, Workers: w},
		{Label: "1024-a", Agents: 4 * a, Workers: w},
	}
	r := &Fig9Result{}
	for _, c := range cfgs {
		c.Log = runSearch("Combo", "large", search.A3C, sc, c.Agents, c.Workers, fid, sc.Seed)
		r.Runs = append(r.Runs, c)
	}
	return r
}

// MeanUtilization returns the mean utilization of a labeled run.
func (r *Fig9Result) MeanUtilization(label string) float64 {
	for _, run := range r.Runs {
		if run.Label == label {
			return meanUtilization(run.Log)
		}
	}
	return math.NaN()
}

// Render draws the Figure 9 utilization comparison.
func (r *Fig9Result) Render() string {
	var series []report.Series
	for _, run := range r.Runs {
		util := run.Log.Utilization
		xs := make([]float64, len(util))
		for i := range util {
			xs[i] = float64(i) * run.Log.UtilBucket / 60
		}
		series = append(series, report.Series{Name: run.Label, X: xs, Y: util})
	}
	out := report.Chart("Fig 9 — A3C utilization, Combo large space: agent vs worker scaling",
		"time (min)", "utilization", series, 70, 14)
	for _, run := range r.Runs {
		out += fmt.Sprintf("  %-7s agents=%-3d workers/agent=%-3d nodes=%-4d mean utilization=%.3f\n",
			run.Label, run.Agents, run.Workers, run.Agents*run.Workers, r.MeanUtilization(run.Label))
	}
	return out
}

// Fig10 reproduces Figure 10: post-training of the top architectures from
// the Fig 9 agent-scaling runs (512-a and 1024-a).
func Fig10(sc Scale) *PostResult {
	bench := benchFor("Combo", sc.Seed)
	fid := bench.RewardTrainFrac
	r := &PostResult{Label: "Fig 10 — post-training, Combo large space, agent scaling"}
	for _, mult := range []int{2, 4} {
		log := runSearch("Combo", "large", search.A3C, sc, mult*sc.BaseAgents, sc.BaseWorkers, fid, sc.Seed)
		rep := posttrain.Run(bench, spaceFor(bench, "large"), log.TopK(sc.TopK),
			posttrain.Config{Epochs: sc.PostEpochs, Seed: sc.Seed})
		rep.Space = fmt.Sprintf("%s (%d agents)", rep.Space, mult*sc.BaseAgents)
		r.Reports = append(r.Reports, rep)
	}
	return r
}

// Fig11Result reproduces Figure 11: the reward-estimation fidelity sweep on
// the Combo large space.
type Fig11Result struct {
	Fidelities []float64
	Logs       []*search.Log
}

// Fig11 runs A3C at 10/20/30/40% training-data fractions.
func Fig11(sc Scale) *Fig11Result {
	r := &Fig11Result{Fidelities: []float64{0.10, 0.20, 0.30, 0.40}}
	for _, f := range r.Fidelities {
		log := runSearch("Combo", "large", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, f, sc.Seed)
		r.Logs = append(r.Logs, log)
	}
	return r
}

// TimeoutFraction returns the fraction of real evaluations that hit the
// 10-minute timeout at the given fidelity index.
func (r *Fig11Result) TimeoutFraction(i int) float64 {
	s := analytics.Summarize(r.Logs[i].Results)
	total := s.Evaluations + s.CacheHits
	if total == 0 {
		return 0
	}
	return float64(s.TimedOut) / float64(total)
}

// TimeToPositiveReward returns when best-so-far first exceeded zero.
func (r *Fig11Result) TimeToPositiveReward(i int) float64 {
	best := math.Inf(-1)
	for _, res := range r.Logs[i].Results {
		if res.Reward > best {
			best = res.Reward
			if best > 0 {
				return res.FinishTime
			}
		}
	}
	return math.Inf(1)
}

// Render draws Figure 11.
func (r *Fig11Result) Render() string {
	var series []report.Series
	for i, f := range r.Fidelities {
		traj := analytics.Trajectory(r.Logs[i].Results, trajBucket, r.Logs[i].EndTime)
		xs := make([]float64, len(traj))
		ys := make([]float64, len(traj))
		for j, p := range traj {
			xs[j] = p.Time / 60
			ys[j] = p.Best
		}
		series = append(series, report.Series{Name: fmt.Sprintf("%.0f%%", f*100), X: xs, Y: ys})
	}
	out := report.Chart("Fig 11 — A3C on Combo large space: reward vs training-data fraction",
		"time (min)", "Reward (R2)", series, 70, 16)
	for i, f := range r.Fidelities {
		out += fmt.Sprintf("  %2.0f%%: timeouts=%.1f%% of evals, best>0 at %.0f min\n",
			f*100, 100*r.TimeoutFraction(i), r.TimeToPositiveReward(i)/60)
	}
	return out
}

// Fig12 reproduces Figure 12: post-training of the top architectures per
// fidelity level.
func Fig12(sc Scale) *PostResult {
	bench := benchFor("Combo", sc.Seed)
	r := &PostResult{Label: "Fig 12 — post-training by reward-estimation fidelity (Combo large space)"}
	for _, f := range []float64{0.10, 0.20, 0.30, 0.40} {
		log := runSearch("Combo", "large", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, f, sc.Seed)
		rep := posttrain.Run(bench, spaceFor(bench, "large"), log.TopK(sc.TopK),
			posttrain.Config{Epochs: sc.PostEpochs, Seed: sc.Seed})
		rep.Space = fmt.Sprintf("%s (fidelity %.0f%%)", rep.Space, f*100)
		r.Reports = append(r.Reports, rep)
	}
	return r
}

// Fig13Result reproduces Figure 13: quantile statistics of the A3C search
// trajectory over independent replications on the Combo small space.
type Fig13Result struct {
	Grid  []float64 // seconds
	Bands [][]float64
	Qs    []float64
	Logs  []*search.Log
}

// Fig13 repeats the Combo small-space A3C search with different seeds and
// computes the 10/50/90% quantile bands of the best-so-far trajectory.
func Fig13(sc Scale) *Fig13Result {
	bench := benchFor("Combo", sc.Seed)
	fid := bench.RewardTrainFrac
	r := &Fig13Result{Qs: []float64{0.10, 0.50, 0.90}}
	r.Grid = analytics.Grid(sc.Horizon, trajBucket)
	var trajs [][]float64
	for rep := 0; rep < sc.Replications; rep++ {
		log := runSearch("Combo", "small", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, fid, sc.Seed+uint64(rep)*1000)
		r.Logs = append(r.Logs, log)
		trajs = append(trajs, analytics.BestSoFar(log.Results, r.Grid))
	}
	r.Bands = analytics.QuantileBands(trajs, r.Qs)
	return r
}

// SpreadAt returns the 90%-10% quantile spread at grid index i.
func (r *Fig13Result) SpreadAt(i int) float64 {
	return r.Bands[2][i] - r.Bands[0][i]
}

// Render draws Figure 13.
func (r *Fig13Result) Render() string {
	var series []report.Series
	labels := []string{"q10", "q50", "q90"}
	xs := make([]float64, len(r.Grid))
	for i, t := range r.Grid {
		xs[i] = t / 60
	}
	for k := range r.Qs {
		ys := make([]float64, len(r.Bands[k]))
		copy(ys, r.Bands[k])
		for i := range ys {
			if math.IsInf(ys[i], 0) {
				ys[i] = math.NaN()
			}
		}
		series = append(series, report.Series{Name: labels[k], X: xs, Y: ys})
	}
	out := report.Chart(fmt.Sprintf("Fig 13 — A3C on Combo small space: quantiles over %d replications", len(r.Logs)),
		"time (min)", "best reward (R2)", series, 70, 14)
	early, late := -1, -1
	for i := range r.Grid {
		if !math.IsInf(r.Bands[0][i], 0) && !math.IsNaN(r.Bands[0][i]) {
			if early < 0 {
				early = i
			}
			late = i
		}
	}
	if early >= 0 && late > early {
		out += fmt.Sprintf("  spread (q90-q10): early=%.3f final=%.3f\n",
			r.SpreadAt(early), r.SpreadAt(late))
	}
	return out
}
