package main

import (
	"math"
	"sort"
)

// Metric is one ledger row: a named measurement with its unit, the number
// of samples behind it, and — for timings — the highest percentile that
// still has at least ten samples beyond it.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the sample count behind Value (1 for a single measurement or an
	// exact count).
	N int `json:"n"`
	// HighPct/High are the tail percentile and its value; absent when twenty
	// samples or fewer leave no percentile above the median with ten beyond it.
	HighPct float64 `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
	// Samples lets -compare tell a spread wider than the bound from a real
	// change: a small sample set whole, a large one as the medians of
	// sixteen consecutive chunks.
	Samples []float64 `json:"samples,omitempty"`
}

// maxKeptSamples bounds Metric.Samples: per-repetition values are kept as
// they are, per-request latencies (thousands) in chunks.
const (
	maxKeptSamples = 64
	sampleChunks   = 16
)

// timing reduces samples to a median row with its tail percentile.
func timing(name, unit string, samples []float64) Metric {
	m := Metric{Name: name, Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return m
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m.Value = quantileSorted(s, 0.5)
	if len(s) <= maxKeptSamples {
		m.Samples = append([]float64(nil), samples...)
	} else {
		for c := 0; c < sampleChunks; c++ {
			m.Samples = append(m.Samples, median(samples[c*len(s)/sampleChunks:(c+1)*len(s)/sampleChunks]))
		}
	}
	// The highest percentile with >= 10 samples beyond it, when that is a
	// tail at all.
	if len(s) > 20 {
		q := 1 - 10/float64(len(s))
		m.HighPct = math.Floor(q*1000) / 10
		m.High = quantileSorted(s, m.HighPct/100)
	}
	return m
}

// single is a row holding one measurement or an exact count.
func single(name, unit string, v float64) Metric {
	return Metric{Name: name, Unit: unit, Value: v, N: 1}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted interpolates linearly between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise measure -compare holds against a metric's bound. Fewer
// than four samples give no quartiles; the full range stands in.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	if len(v) < 4 {
		return (quantile(v, 1) - quantile(v, 0)) / math.Abs(med)
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(med)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
