package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/data"
	"nasgo/internal/evaluator"
	"nasgo/internal/hpc"
	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rl"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/tensor"
)

// This file times each layer by calling its public functions directly, on
// inputs taken from the workload where the layer's cost depends on them.
// The unit costs feed process.accounted_frac: count × unit cost, summed over
// the layers, against the workload's wall time.

// timed calls f n times after one warm-up call and returns each call's
// wall seconds together with the heap objects and bytes one call allocates.
// The allocations are counted over a few extra calls with the collector
// off, so that the count is the code's own and repeats to the digit.
func timed(n int, f func()) (secs []float64, allocs, bytes float64) {
	f()
	secs = make([]float64, n)
	for i := range secs {
		t0 := time.Now()
		f()
		secs[i] = time.Since(t0).Seconds()
	}
	const k = 5
	var before, after runtime.MemStats
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return secs, math.Round(float64(after.Mallocs-before.Mallocs) / k), float64(after.TotalAlloc-before.TotalAlloc) / k
}

// filled returns a rows×cols tensor of small deterministic values.
func filled(r *rng.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data {
		t.Data[i] = r.Float64() - 0.5
	}
	return t
}

// tensorLayer times the two matrix kernels the workloads spend their time
// in: the dense forward product of the Combo-scaled train step
// (batch 16 × 120 inputs × 32 units) through the destination-passing
// MatMulInto, and the weight-gradient product of the controller's LSTM
// backward step (4 episodes, 32 hidden units, 4×32 gates) through the
// allocating MatMulTransA that internal/nn still calls. The operation count
// is computed (2·m·n·k), not measured.
func tensorLayer(r *run) {
	rnd := rng.New(7)
	const m, k, n = 16, 120, 32
	a, b, dst := filled(rnd, m, k), filled(rnd, k, n), tensor.New(m, n)
	iters := 200 * r.sc.layerIters
	secs, _, _ := timed(iters, func() { tensor.MatMulInto(dst, a, b) })
	gflops := timing("tensor.matmul_gflops", "GFLOP/s", scaleBy(inverse(secs, 1), 2*m*n*k/1e9))

	const batch, hidden = 4, 32
	h, dz := filled(rnd, batch, hidden), filled(rnd, batch, 4*hidden)
	var sink *tensor.Tensor
	secs, allocs, _ := timed(iters, func() { sink = tensor.MatMulTransA(h, dz) })
	_ = sink
	r.add(gflops,
		timing("tensor.matmul_transa_us", "us", scaleBy(secs, 1e6)),
		single("tensor.matmul_transa_allocs", "count", allocs))
}

// trainLayer times one warm train step of the miniature Combo regression
// net (three input heads of 60/120/120 → 32 units, concat, 32, 1) at batch
// 16 with the workspace arena on: the bench_results/kernels.txt row.
func trainLayer(r *run) {
	ds, _ := data.GenCombo(data.ComboConfig{Seed: 31, NTrain: 128, NVal: 16})
	rnd := rng.New(32)
	mb := nn.NewModelBuilder()
	const hidden = 32
	var heads []int
	for _, d := range ds.InputDims() {
		heads = append(heads, mb.Layer(mb.Input(), nn.NewDense(rnd, d, hidden, nn.ActReLU)))
	}
	h := mb.Layer(mb.Concat(heads...), nn.NewDense(rnd, hidden*len(heads), hidden, nn.ActReLU))
	model := mb.Build(mb.Layer(h, nn.NewDense(rnd, hidden, 1, nn.ActLinear)))
	ar := tensor.NewArena()
	model.SetArena(ar)
	opt := optim.NewAdam(0.005)
	idx := make([]int, 16)
	var batch *data.Dataset
	step := 0
	secs, allocs, _ := timed(20*r.sc.layerIters, func() {
		step++
		for i := range idx {
			idx[i] = (step + i*7) % ds.N()
		}
		batch = ds.GatherInto(batch, idx)
		model.ZeroGrad()
		_, grad := nn.MSELossArena(ar, model.Forward(batch.Inputs, true), batch.YReg)
		model.Backward(grad)
		opt.Step(model.Params())
		ar.Reset()
	})
	r.add(timing("train.step_us", "us", scaleBy(secs, 1e6)),
		single("train.step_allocs", "count", allocs))
}

// rlCost is the controller's unit costs on one search space.
type rlCost struct{ sampleS, updateS float64 }

// rlLayer times the controller on the workload's own search space with the
// search's batch of four episodes: Sample(4), and Update — the
// Config.Epochs gradient computations and Adam steps one agent round runs.
func rlLayer(r *run, sp *space.Space) rlCost {
	ctrl := rl.NewController(sp, 11, rl.Config{})
	var eps []*rl.Episode
	secs, _, _ := timed(2*r.sc.layerIters, func() { eps = ctrl.Sample(4) })
	sample := timing("rl.sample_us", "us", scaleBy(secs, 1e6))
	for i, ep := range eps {
		ep.Reward = 0.1 * float64(i+1)
	}
	secs, allocs, bytes := timed(r.sc.layerIters, func() { ctrl.Update(eps) })
	update := timing("rl.update_ms", "ms", scaleBy(secs, 1e3))
	r.add(sample, update,
		single("rl.update_allocs", "count", allocs),
		single("rl.update_kb", "KB", bytes/1024))
	return rlCost{sampleS: sample.Value / 1e6, updateS: update.Value / 1e3}
}

// noop is the cheapest possible event body.
type noop struct{}

func (noop) Fire() {}

// hpcLayer times handler events through a bare simulator — schedule, pop in
// (time, seq) order, dispatch — in batches, because one event is a few tens
// of nanoseconds. It returns seconds per event.
func hpcLayer(r *run) float64 {
	const batch = 10000
	sim := hpc.NewSim()
	rnd := rng.New(5)
	delays := make([]float64, batch)
	for i := range delays {
		delays[i] = rnd.Float64() * 100
	}
	secs, _, _ := timed(2*r.sc.layerIters, func() {
		for _, d := range delays {
			sim.AtHandlerE(d, noop{})
		}
		sim.RunAll()
	})
	m := timing("hpc.ns_per_event", "ns", scaleBy(secs, 1e9/batch))
	r.add(m)
	return m.Value / 1e9
}

// estimateLayer times single reward estimations — compile at both dimension
// sets, build, train, validate — with the workload's own training knobs, on
// an even sample of the architectures the workload evaluated. It returns
// the mean seconds of one estimation.
func estimateLayer(r *run, bench *candle.Benchmark, sp *space.Space, cfg evaluator.Config, archs [][]int) float64 {
	if len(archs) > r.sc.estimates {
		stride := float64(len(archs)) / float64(r.sc.estimates)
		picked := make([][]int, r.sc.estimates)
		for i := range picked {
			picked[i] = archs[int(float64(i)*stride)]
		}
		archs = picked
	}
	// TabulateMetric is the evaluator's one public single-estimation entry
	// point; it needs benchmark mode, which changes the RNG stream's seed
	// and nothing about the work.
	cfg.BenchSeed = dataSeed
	cfg.Workers = 1
	sim := hpc.NewSim()
	ev := evaluator.New(sim, balsam.NewService(sim, 1), bench, sp, cfg)
	var secs []float64
	for _, choices := range archs {
		t0 := time.Now()
		if _, _, err := ev.TabulateMetric(choices); err != nil {
			continue // a compile failure costs a search nothing either
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	ms := scaleBy(secs, 1e3)
	r.add(timing("evaluator.estimate_ms_p50", "ms", ms),
		single("evaluator.estimate_ms_p90", "ms", quantile(ms, 0.9)))
	if len(secs) == 0 {
		return 0
	}
	return sum(secs) / float64(len(secs))
}

// submitCost is what the evaluator does on the host for a table-served
// search besides the lookup: per search, construct the evaluator (which
// draws the fidelity subsample of the training set); per submitted task,
// compile the architecture at paper and at scaled dimensions. Neither has a
// per-layer row of its own; they are timed so that process.accounted_frac
// can say where a controller-free search spends its time.
type submitCost struct{ newS, compileS float64 }

func submitLayer(r *run, bench *candle.Benchmark, sp *space.Space, cfg evaluator.Config, archs [][]int) submitCost {
	cfg.Workers = 1
	secs, _, _ := timed(r.sc.layerIters, func() {
		sim := hpc.NewSim()
		evaluator.New(sim, balsam.NewService(sim, 1), bench, sp, cfg)
	})
	newS := median(secs)
	i := 0
	secs, _, _ = timed(10*r.sc.layerIters, func() {
		choices := archs[i%len(archs)]
		i++
		if ir, err := sp.Compile(choices, sp.PaperInputDims(), 1.0); err == nil {
			ir.Stats()
		}
		sp.Compile(choices, bench.Train.InputDims(), bench.UnitScale)
	})
	return submitCost{newS: newS, compileS: median(secs)}
}

// uniqueArchs lists the distinct architectures of a result log in first-
// seen order.
func uniqueArchs(results []*evaluator.Result) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, res := range results {
		if !seen[res.Key] {
			seen[res.Key] = true
			out = append(out, res.Choices)
		}
	}
	return out
}

// procSnap is the process-wide allocator state before a measured run.
type procSnap struct{ m runtime.MemStats }

func snapProcess() *procSnap {
	p := &procSnap{}
	runtime.ReadMemStats(&p.m)
	return p
}

// emit reports what the process allocated and paused since the snapshot,
// and the child's peak resident set.
func (p *procSnap) emit(r *run) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	r.add(single("process.alloc_mb", "MB", float64(now.TotalAlloc-p.m.TotalAlloc)/(1<<20)),
		single("process.mallocs_k", "k", float64(now.Mallocs-p.m.Mallocs)/1e3),
		single("process.gc_pause_ms", "ms", float64(now.PauseTotalNs-p.m.PauseTotalNs)/1e6),
		single("process.peak_rss_mb", "MB", peakRSSMB()))
}

// peakRSSMB reads VmHWM, the process's high-water resident set; 0 where
// /proc is absent.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// accounting is the attribution of one workload's wall time: each layer's
// count × unit cost in seconds.
type accounting struct {
	wall  float64
	parts []part
}

type part struct {
	layer string
	secs  float64
}

func (a *accounting) add(layer string, count, unit float64) {
	a.parts = append(a.parts, part{layer, count * unit})
}

// emit reports process.accounted_frac and, as ledger-only detail, each
// layer's share of the wall time.
func (a *accounting) emit(r *run) {
	total := 0.0
	for _, p := range a.parts {
		total += p.secs
		r.add(single("process.accounted_frac."+p.layer, "fraction", p.secs/a.wall))
	}
	r.add(single("process.accounted_frac", "fraction", total/a.wall))
}
