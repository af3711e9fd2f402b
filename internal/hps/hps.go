// Package hps is a compact hyperparameter-search module in the spirit of
// DeepHyper's other half: the paper's software (§4) descends from an
// asynchronous hyperparameter search package, and §7 lists "integrating
// hyperparameter search approaches" as future work. This module provides
// that integration for nasgo: given a FIXED architecture (e.g. the best
// network a NAS run discovered), it tunes training hyperparameters —
// learning rate, batch size, training epochs — with either random search or
// asynchronous successive halving (the core of Hyperband, which the paper
// cites as the state of the art in bandit-based tuning).
//
// The module reuses the same substrate as the NAS: real training on the
// scaled benchmark with deterministic seeds.
package hps

import (
	"fmt"
	"math"
	"sort"

	"nasgo/internal/candle"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/train"
)

// Params is one hyperparameter configuration.
type Params struct {
	LR        float64
	BatchSize int
	Epochs    int
}

func (p Params) String() string {
	return fmt.Sprintf("lr=%.4g batch=%d epochs=%d", p.LR, p.BatchSize, p.Epochs)
}

// SpaceDef bounds the hyperparameter search space.
type SpaceDef struct {
	LRMin, LRMax       float64 // log-uniform
	BatchMin, BatchMax int     // log2-uniform
	MaxEpochs          int
}

// sample draws a configuration log-uniformly.
func (s SpaceDef) sample(r *rng.Rand, epochs int) Params {
	lr := math.Exp(math.Log(s.LRMin) + r.Float64()*(math.Log(s.LRMax)-math.Log(s.LRMin)))
	lo := int(math.Log2(float64(s.BatchMin)))
	hi := int(math.Log2(float64(s.BatchMax)))
	batch := 1 << (lo + r.Intn(hi-lo+1))
	return Params{LR: lr, BatchSize: batch, Epochs: epochs}
}

// Trial is one evaluated configuration.
type Trial struct {
	Params Params
	Metric float64
}

// Result is the outcome of a search.
type Result struct {
	Trials []Trial
	Best   Trial
	// Evaluations counts (config, epoch-budget) training runs.
	Evaluations int
}

// Objective evaluates one configuration by training the architecture from
// scratch and returning the validation metric.
type Objective struct {
	Bench *candle.Benchmark
	IR    *space.ArchIR
	Seed  uint64
}

// Eval trains with the given hyperparameters and returns the metric.
func (o *Objective) Eval(p Params) float64 {
	r := rng.New(o.Seed ^ uint64(p.BatchSize)<<32 ^ math.Float64bits(p.LR))
	model := o.IR.BuildModel(r.Split())
	train.Fit(model, o.Bench.Train, train.Config{
		Epochs:    p.Epochs,
		BatchSize: p.BatchSize,
		Optimizer: optim.NewAdam(p.LR),
		Rand:      r.Split(),
	})
	return train.Evaluate(model, o.Bench.Val)
}

// RandomSearch evaluates n random configurations at full epoch budget.
func RandomSearch(o *Objective, sd SpaceDef, n int, seed uint64) *Result {
	if n <= 0 {
		panic("hps: RandomSearch needs n > 0")
	}
	r := rng.New(seed)
	res := &Result{Best: Trial{Metric: math.Inf(-1)}}
	for i := 0; i < n; i++ {
		p := sd.sample(r, sd.MaxEpochs)
		m := o.Eval(p)
		res.Evaluations++
		t := Trial{Params: p, Metric: m}
		res.Trials = append(res.Trials, t)
		if m > res.Best.Metric {
			res.Best = t
		}
	}
	return res
}

// SuccessiveHalving runs the Hyperband core: start n configurations at a
// small epoch budget, keep the top 1/eta at eta× the budget, repeat until
// the maximum budget. With the same total training cost as random search it
// explores many more configurations.
func SuccessiveHalving(o *Objective, sd SpaceDef, n int, eta float64, seed uint64) *Result {
	if n <= 0 || eta <= 1 {
		panic("hps: SuccessiveHalving needs n > 0 and eta > 1")
	}
	r := rng.New(seed)
	// Rounds: budgets maxEpochs/eta^k .. maxEpochs.
	budgets := []int{sd.MaxEpochs}
	for b := float64(sd.MaxEpochs) / eta; b >= 1 && len(budgets) < 6; b /= eta {
		budgets = append([]int{int(math.Max(1, math.Round(b)))}, budgets...)
	}
	configs := make([]Params, n)
	for i := range configs {
		configs[i] = sd.sample(r, budgets[0])
	}
	res := &Result{Best: Trial{Metric: math.Inf(-1)}}
	for round, budget := range budgets {
		final := round == len(budgets)-1
		trials := make([]Trial, 0, len(configs))
		for _, p := range configs {
			p.Epochs = budget
			m := o.Eval(p)
			res.Evaluations++
			t := Trial{Params: p, Metric: m}
			trials = append(trials, t)
			res.Trials = append(res.Trials, t)
			// Best is chosen among full-budget trials only. Metrics from
			// different budgets are not comparable — a noisy low-epoch score
			// can exceed every converged full-budget score, and promoting it
			// would return a config that was never trained to completion.
			// Low-budget rounds exist to pick survivors, nothing more.
			if final && m > res.Best.Metric {
				res.Best = t
			}
		}
		if final {
			break
		}
		sort.Slice(trials, func(i, j int) bool { return trials[i].Metric > trials[j].Metric })
		keep := int(math.Max(1, float64(len(trials))/eta))
		configs = configs[:0]
		for _, t := range trials[:keep] {
			configs = append(configs, t.Params)
		}
	}
	return res
}
