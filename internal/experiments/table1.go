package experiments

import (
	"fmt"
	"strings"

	"nasgo/internal/posttrain"
	"nasgo/internal/report"
	"nasgo/internal/search"
)

// Table1Row is one benchmark's comparison between the manually designed
// network and the best A3C-discovered architecture.
type Table1Row struct {
	Bench string

	BaselineParams int64
	BaselineTime   float64
	BaselineMetric float64

	BestParams int64
	BestTime   float64
	BestMetric float64
}

// ParamsRatio returns P_b/P for the best architecture.
func (r Table1Row) ParamsRatio() float64 {
	return float64(r.BaselineParams) / float64(r.BestParams)
}

// TimeRatio returns T_b/T for the best architecture.
func (r Table1Row) TimeRatio() float64 { return r.BaselineTime / r.BestTime }

// AccRatio returns the accuracy ratio for the best architecture.
func (r Table1Row) AccRatio() float64 { return r.BestMetric / r.BaselineMetric }

// Table1Result reproduces Table 1: the summary of the best A3C-generated
// architectures against the manually designed networks.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 post-trains each benchmark's small-space A3C top-K and reports the
// best architecture by post-trained metric.
func Table1(sc Scale) *Table1Result {
	out := &Table1Result{}
	for _, benchName := range []string{"Combo", "Uno", "NT3"} {
		bench := benchFor(benchName, sc.Seed)
		log := runSearch(benchName, "small", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
		rep := posttrain.Run(bench, spaceFor(bench, "small"), log.TopK(sc.TopK),
			posttrain.Config{Epochs: sc.PostEpochs, Seed: sc.Seed})
		best := rep.Best()
		if best == nil {
			panic("experiments: no post-trained entries for " + benchName)
		}
		out.Rows = append(out.Rows, Table1Row{
			Bench:          benchName,
			BaselineParams: rep.BaselineParams,
			BaselineTime:   rep.BaselineTime,
			BaselineMetric: rep.BaselineMetric,
			BestParams:     best.Params,
			BestTime:       best.TrainTime,
			BestMetric:     best.Metric,
		})
	}
	return out
}

// Render prints the Table 1 layout: trainable parameters, training time,
// and metric for the manually designed network and the best A3C
// architecture of each benchmark.
func (t *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1 — Summary of best architectures found by A3C\n")
	rows := make([][]string, 0, len(t.Rows)*2)
	for _, r := range t.Rows {
		metric := "R2"
		if r.Bench == "NT3" {
			metric = "ACC"
		}
		rows = append(rows,
			[]string{r.Bench, "manually designed", fmt.Sprintf("%d", r.BaselineParams),
				fmt.Sprintf("%.2f", r.BaselineTime), fmt.Sprintf("%.3f (%s)", r.BaselineMetric, metric)},
			[]string{"", "A3C-best", fmt.Sprintf("%d", r.BestParams),
				fmt.Sprintf("%.2f", r.BestTime), fmt.Sprintf("%.3f (%s)", r.BestMetric, metric)},
		)
	}
	b.WriteString(report.Table(
		[]string{"benchmark", "network", "trainable params", "training time (s)", "metric"}, rows))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s: %.1fx fewer parameters, %.1fx faster training, accuracy ratio %.3f\n",
			r.Bench, r.ParamsRatio(), r.TimeRatio(), r.AccRatio())
	}
	return b.String()
}
