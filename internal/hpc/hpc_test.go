package hpc

import (
	"math"
	"testing"
	"testing/quick"

	"nasgo/internal/rng"
	"nasgo/internal/space"
)

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %g, want 3", s.Now())
	}
}

func TestSimFIFOTieBreak(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	var hits []float64
	s.At(1, func() {
		hits = append(hits, s.Now())
		s.At(2, func() { hits = append(hits, s.Now()) })
	})
	s.RunAll()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestSimRunHorizon(t *testing.T) {
	s := NewSim()
	ran := 0
	s.At(1, func() { ran++ })
	s.At(10, func() { ran++ })
	n := s.Run(5)
	if n != 1 || ran != 1 {
		t.Fatalf("horizon run executed %d events", ran)
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %g, want 5", s.Now())
	}
	if len(s.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.queue))
	}
	s.RunAll()
	if ran != 2 || s.Now() != 10 {
		t.Fatalf("RunAll did not finish: ran %d at %g", ran, s.Now())
	}
}

func TestSimNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSim().At(-1, func() {})
}

// TestSimClockMonotonic is the core DES invariant: processing order never
// observes a decreasing clock, for random event batches including nested
// scheduling.
func TestSimClockMonotonic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := NewSim()
		last := -1.0
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if depth < 3 {
				n := r.Intn(3)
				for i := 0; i < n; i++ {
					d := r.Float64() * 10
					s.At(d, func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 5; i++ {
			s.At(r.Float64()*10, func() { spawn(0) })
		}
		s.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainTimeScalesLinearly(t *testing.T) {
	st := space.ArchStats{Params: 1000, FwdFLOPs: 1e6}
	t1 := KNL.TrainTime(st, 1000, 1)
	t2 := KNL.TrainTime(st, 2000, 1)
	t3 := KNL.TrainTime(st, 1000, 2)
	if math.Abs(t2-2*t1) > 1e-12 || math.Abs(t3-2*t1) > 1e-12 {
		t.Fatalf("TrainTime not linear: %g %g %g", t1, t2, t3)
	}
	if K80.TrainTime(st, 1000, 1) >= t1 {
		t.Fatal("K80 must be faster than KNL")
	}
}

func TestPlanRewardEstimateNoTimeout(t *testing.T) {
	st := space.ArchStats{FwdFLOPs: 1e7}
	cfg := EvalTaskConfig{
		Device: KNL, TrainSamples: 1000, ValSamples: 200,
		BatchSize: 100, Epochs: 1, Timeout: 600,
	}
	est := PlanRewardEstimate(st, cfg)
	if est.TimedOut {
		t.Fatal("small task must not time out")
	}
	if est.TrainBatches != 10 {
		t.Fatalf("TrainBatches = %d, want 10", est.TrainBatches)
	}
	// Training pays the cold-start derate; the validation sweep does not.
	wantDur := KNL.TaskStartup + ColdTrainSlowdown*KNL.TrainTime(st, 1000, 1) + KNL.InferTime(st, 200)
	if math.Abs(est.Duration-wantDur) > 1e-9 {
		t.Fatalf("Duration = %g, want %g", est.Duration, wantDur)
	}
}

func TestPlanRewardEstimateTimeout(t *testing.T) {
	// A deep, expensive architecture at high fidelity must hit the
	// 10-minute timeout with a truncated batch budget — the mechanism
	// behind Fig 11.
	st := space.ArchStats{FwdFLOPs: 3e8, MeanWidth: 1000, Depth: 31}
	cfg := EvalTaskConfig{
		Device: KNL, TrainSamples: 99460, ValSamples: 6000,
		BatchSize: 256, Epochs: 1, Timeout: 600,
	}
	est := PlanRewardEstimate(st, cfg)
	if !est.TimedOut {
		t.Fatal("expected timeout")
	}
	if est.Duration != 600 {
		t.Fatalf("timed-out duration = %g, want 600", est.Duration)
	}
	full := (99460 + 255) / 256
	if est.TrainBatches <= 0 || est.TrainBatches >= full {
		t.Fatalf("TrainBatches = %d, want in (0, %d)", est.TrainBatches, full)
	}
}

func TestPlanRewardEstimateValidationDominatedTimeout(t *testing.T) {
	// When even validation cannot fit in the timeout, the task still ends
	// at the timeout with zero training batches — the architecture is
	// effectively unevaluable, like the paper's killed jobs.
	st := space.ArchStats{FwdFLOPs: 5e9, MeanWidth: 1000, Depth: 31}
	est := PlanRewardEstimate(st, EvalTaskConfig{
		Device: KNL, TrainSamples: 99460, ValSamples: 62164,
		BatchSize: 256, Epochs: 1, Timeout: 600,
	})
	if !est.TimedOut || est.TrainBatches != 0 || est.Duration != 600 {
		t.Fatalf("got %+v, want timed out with 0 batches at 600 s", est)
	}
}

func TestPlanRewardEstimateMonotoneInFidelity(t *testing.T) {
	// More training data at fixed architecture can only increase duration.
	st := space.ArchStats{FwdFLOPs: 1e8}
	prev := 0.0
	for _, frac := range []int{10000, 20000, 30000, 40000} {
		est := PlanRewardEstimate(st, EvalTaskConfig{
			Device: KNL, TrainSamples: frac, ValSamples: 1000,
			BatchSize: 256, Epochs: 1, Timeout: 600,
		})
		if est.Duration < prev {
			t.Fatalf("duration decreased with more data: %g < %g", est.Duration, prev)
		}
		prev = est.Duration
	}
}

// TestEffRateMonotonicity pins the cost model's qualitative behaviour:
// wider layers run faster per FLOP, deeper graphs slower.
func TestEffRateMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		w := 10 + float64(r.Intn(2000))
		d := 1 + r.Intn(40)
		base := space.ArchStats{MeanWidth: w, Depth: d}
		wider := space.ArchStats{MeanWidth: w * 2, Depth: d}
		deeper := space.ArchStats{MeanWidth: w, Depth: d + 10}
		if KNL.EffRate(wider) <= KNL.EffRate(base) {
			return false
		}
		if KNL.EffRate(deeper) >= KNL.EffRate(base) {
			return false
		}
		return KNL.EffRate(base) <= KNL.Rate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEffRateShallowNoPenalty(t *testing.T) {
	// At or below the reference depth there is no depth penalty.
	a := space.ArchStats{MeanWidth: 1000, Depth: 3}
	b := space.ArchStats{MeanWidth: 1000, Depth: 7}
	if KNL.EffRate(a) != KNL.EffRate(b) {
		t.Fatal("depth penalty applied below RefDepth")
	}
}

func TestPlanRewardEstimatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PlanRewardEstimate(space.ArchStats{}, EvalTaskConfig{Device: KNL})
}
