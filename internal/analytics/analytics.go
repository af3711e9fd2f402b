// Package analytics mirrors the paper's analytics module (§4): it parses
// search traces into the quantities the evaluation section plots — reward
// trajectories over time, best-so-far curves, utilization summaries,
// quantile bands over replications, and unique-architecture counts.
package analytics

import (
	"encoding/json"
	"math"
	"sort"

	"nasgo/internal/evaluator"
)

// TrajectoryPoint is one time bucket of a reward trajectory.
type TrajectoryPoint struct {
	// Time is the bucket's end time in seconds.
	Time float64
	// Best is the best reward observed up to and including this bucket
	// (-Inf before the first result).
	Best float64
	// Mean is the mean reward of evaluations finishing in this bucket
	// (NaN when the bucket is empty).
	Mean float64
	// Count is the number of evaluations in the bucket.
	Count int
}

// trajectoryPointJSON is the wire form of TrajectoryPoint: encoding/json
// rejects NaN and ±Inf outright, so the two sentinel values a trajectory
// legitimately contains — NaN Mean for an empty bucket, -Inf Best before
// the first result — are carried as null.
type trajectoryPointJSON struct {
	Time  float64  `json:"Time"`
	Best  *float64 `json:"Best"`
	Mean  *float64 `json:"Mean"`
	Count int      `json:"Count"`
}

// MarshalJSON encodes NaN Mean and non-finite Best as null, so report
// output containing empty buckets marshals instead of failing with
// "unsupported value: NaN".
func (p TrajectoryPoint) MarshalJSON() ([]byte, error) {
	w := trajectoryPointJSON{Time: p.Time, Count: p.Count}
	if !math.IsNaN(p.Best) && !math.IsInf(p.Best, 0) {
		b := p.Best
		w.Best = &b
	}
	if !math.IsNaN(p.Mean) && !math.IsInf(p.Mean, 0) {
		m := p.Mean
		w.Mean = &m
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores the sentinels: null Best → -Inf, null Mean → NaN.
func (p *TrajectoryPoint) UnmarshalJSON(data []byte) error {
	var w trajectoryPointJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	p.Time = w.Time
	p.Count = w.Count
	p.Best = math.Inf(-1)
	if w.Best != nil {
		p.Best = *w.Best
	}
	p.Mean = math.NaN()
	if w.Mean != nil {
		p.Mean = *w.Mean
	}
	return nil
}

// Trajectory buckets results by finish time and computes the mean-reward
// and best-so-far series the paper's Figures 4, 6, 11, and 13 plot.
// Results must be in completion order (as search.Log provides them).
func Trajectory(results []*evaluator.Result, bucket, horizon float64) []TrajectoryPoint {
	if bucket <= 0 {
		panic("analytics: bucket must be positive")
	}
	end := horizon
	for _, r := range results {
		if r.FinishTime > end {
			end = r.FinishTime
		}
	}
	n := int(math.Ceil(end / bucket))
	if n == 0 {
		n = 1
	}
	points := make([]TrajectoryPoint, n)
	for i := range points {
		points[i].Time = float64(i+1) * bucket
		points[i].Mean = math.NaN()
	}
	sums := make([]float64, n)
	for _, r := range results {
		b := int(r.FinishTime / bucket)
		if b >= n {
			b = n - 1
		}
		sums[b] += r.Reward
		points[b].Count++
	}
	// Best-so-far per bucket, walking results (already in completion
	// order) alongside the buckets.
	best := math.Inf(-1)
	idx := 0
	for b := 0; b < n; b++ {
		for idx < len(results) {
			r := results[idx]
			rb := int(r.FinishTime / bucket)
			if rb >= n {
				rb = n - 1
			}
			if rb > b {
				break
			}
			if r.Reward > best {
				best = r.Reward
			}
			idx++
		}
		points[b].Best = best
		if points[b].Count > 0 {
			points[b].Mean = sums[b] / float64(points[b].Count)
		}
	}
	return points
}

// BestSoFar samples the running-best reward at the given grid times.
// Times before the first result yield -Inf.
func BestSoFar(results []*evaluator.Result, grid []float64) []float64 {
	out := make([]float64, len(grid))
	best := math.Inf(-1)
	idx := 0
	// Results are in completion order (nondecreasing FinishTime).
	for i, t := range grid {
		for idx < len(results) && results[idx].FinishTime <= t {
			if results[idx].Reward > best {
				best = results[idx].Reward
			}
			idx++
		}
		out[i] = best
	}
	return out
}

// Quantile returns the q-quantile (0..1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("analytics: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("analytics: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(q * float64(len(s)-1))
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// QuantileBands computes, for each time index, the requested quantiles over
// replications: bands[k][i] is quantile qs[k] at grid index i — the
// paper's Figure 13. Each trajectory must share the same grid length.
func QuantileBands(trajectories [][]float64, qs []float64) [][]float64 {
	if len(trajectories) == 0 {
		panic("analytics: no trajectories")
	}
	n := len(trajectories[0])
	for _, tr := range trajectories {
		if len(tr) != n {
			panic("analytics: trajectory grids differ")
		}
	}
	bands := make([][]float64, len(qs))
	for k := range bands {
		bands[k] = make([]float64, n)
	}
	col := make([]float64, len(trajectories))
	for i := 0; i < n; i++ {
		for j, tr := range trajectories {
			col[j] = tr[i]
		}
		for k, q := range qs {
			bands[k][i] = Quantile(col, q)
		}
	}
	return bands
}

// Summary condenses one search log's results.
type Summary struct {
	Evaluations int
	CacheHits   int
	UniqueArchs int
	BestReward  float64
	MeanReward  float64
	TimedOut    int
}

// Summarize computes aggregate statistics over a result trace.
func Summarize(results []*evaluator.Result) Summary {
	s := Summary{BestReward: math.Inf(-1)}
	seen := map[string]bool{}
	var sum float64
	for _, r := range results {
		if r.Cached {
			s.CacheHits++
		} else {
			s.Evaluations++
		}
		if r.TimedOut {
			s.TimedOut++
		}
		seen[r.Key] = true
		sum += r.Reward
		if r.Reward > s.BestReward {
			s.BestReward = r.Reward
		}
	}
	s.UniqueArchs = len(seen)
	if len(results) > 0 {
		s.MeanReward = sum / float64(len(results))
	} else {
		s.BestReward = math.NaN()
		s.MeanReward = math.NaN()
	}
	return s
}

// Grid builds an evenly spaced time grid [step, 2·step, …, horizon].
func Grid(horizon, step float64) []float64 {
	if step <= 0 || horizon <= 0 {
		panic("analytics: Grid needs positive step and horizon")
	}
	var out []float64
	for t := step; t <= horizon+1e-9; t += step {
		out = append(out, t)
	}
	return out
}
