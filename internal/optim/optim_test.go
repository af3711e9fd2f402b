package optim

import (
	"math"
	"testing"

	"nasgo/internal/nn"
	"nasgo/internal/rng"
)

// quadratic builds a parameter set holding a single vector w and returns a
// function that computes loss = |w - target|^2 and fills the gradient.
func quadratic(dim int, seed uint64) (*nn.ParamSet, *nn.Param, []float64, func() float64) {
	r := rng.New(seed)
	p := nn.NewParam("w", dim)
	p.Value.Randn(r, 1)
	target := make([]float64, dim)
	for i := range target {
		target[i] = r.Norm()
	}
	s := nn.NewParamSet()
	s.Add(p)
	step := func() float64 {
		var loss float64
		for i := range p.Value.Data {
			d := p.Value.Data[i] - target[i]
			loss += d * d
			p.Grad.Data[i] = 2 * d
		}
		return loss
	}
	return s, p, target, step
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	s, p, target, grad := quadratic(8, 3)
	opt := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		grad()
		opt.Step(s)
	}
	for i := range target {
		if math.Abs(p.Value.Data[i]-target[i]) > 1e-4 {
			t.Fatalf("Adam did not converge: w[%d]=%g target %g", i, p.Value.Data[i], target[i])
		}
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ~lr
	// regardless of gradient scale.
	p := nn.NewParam("w", 1)
	p.Grad.Data[0] = 1e6
	s := nn.NewParamSet()
	s.Add(p)
	opt := NewAdam(0.001)
	opt.Step(s)
	if math.Abs(math.Abs(p.Value.Data[0])-0.001) > 1e-6 {
		t.Fatalf("first Adam step = %g, want ~0.001", p.Value.Data[0])
	}
}

func TestSharedParamUpdatedOnce(t *testing.T) {
	// A parameter appearing in two layers must receive exactly one update
	// per Step; ParamSet dedupes, and the optimizer's moments follow the set.
	r := rng.New(4)
	d1 := nn.NewDense(r, 2, 2, nn.ActLinear)
	d2 := nn.NewDenseShared(d1.W, d1.B, nn.ActLinear)
	s := nn.NewParamSet()
	s.Add(d1.Params()...)
	s.Add(d2.Params()...)
	if len(s.List()) != 2 {
		t.Fatalf("expected 2 unique params, got %d", len(s.List()))
	}
	d1.W.Grad.Fill(1)
	before := d1.W.Value.Clone()
	NewAdam(0.1).Step(s) // a first Adam step moves every weight by ~lr
	for i := range before.Data {
		if math.Abs(d1.W.Value.Data[i]-(before.Data[i]-0.1)) > 1e-6 {
			t.Fatal("shared param updated more than once or not at all")
		}
	}
}

func TestAdamStateIsolatedPerParam(t *testing.T) {
	p1 := nn.NewParam("a", 1)
	p2 := nn.NewParam("b", 1)
	s := nn.NewParamSet()
	s.Add(p1, p2)
	opt := NewAdam(0.1)
	p1.Grad.Data[0] = 1
	p2.Grad.Data[0] = -1
	opt.Step(s)
	if p1.Value.Data[0] >= 0 || p2.Value.Data[0] <= 0 {
		t.Fatalf("Adam moved params in wrong directions: %g, %g", p1.Value.Data[0], p2.Value.Data[0])
	}
}

func TestAdamNoNaNOnZeroGrad(t *testing.T) {
	p := nn.NewParam("w", 2)
	s := nn.NewParamSet()
	s.Add(p)
	opt := NewAdam(0.001)
	for i := 0; i < 10; i++ {
		opt.Step(s)
	}
	for _, v := range p.Value.Data {
		if math.IsNaN(v) {
			t.Fatal("Adam produced NaN on zero gradients")
		}
	}
}

// TestAdamStateRoundTrip: a state captured before the first Step (nil
// moments), after k Steps, or in the layout captures had before the moments
// were flat (full-length zeros at T=0) restores into a fresh Adam over an
// identically built set and continues the uninterrupted run bit-for-bit.
func TestAdamStateRoundTrip(t *testing.T) {
	const k, total = 5, 12
	// build makes two params so the moments span an offset.
	build := func() (*nn.ParamSet, func()) {
		r := rng.New(11)
		a, b := nn.NewParam("a", 3), nn.NewParam("b", 4)
		a.Value.Randn(r, 1)
		b.Value.Randn(r, 1)
		s := nn.NewParamSet()
		s.Add(a, b)
		grad := func() {
			for _, p := range s.List() {
				for i, v := range p.Value.Data {
					p.Grad.Data[i] = 2*v - 1
				}
			}
		}
		return s, grad
	}
	run := func(opt *Adam, s *nn.ParamSet, grad func(), steps int) {
		for i := 0; i < steps; i++ {
			grad()
			opt.Step(s)
		}
	}
	sameBits := func(what string, want, got []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s: value %d = %v, uninterrupted run has %v", what, i, got[i], want[i])
			}
		}
	}

	s, grad := build()
	opt := NewAdam(0.05)
	fresh := opt.CaptureState()
	if fresh.T != 0 || fresh.M != nil || fresh.V != nil {
		t.Fatalf("untouched Adam captured %+v, want T=0 and nil moments", fresh)
	}
	run(opt, s, grad, k)
	atK := opt.CaptureState()
	valuesAtK := s.FlattenValues()
	run(opt, s, grad, total-k)
	want := s.FlattenValues()

	n := s.Count()
	for _, tc := range []struct {
		name  string
		st    AdamState
		steps int
	}{
		{"T=0", fresh, 0},
		{"old layout T=0", AdamState{M: make([]float64, n), V: make([]float64, n)}, 0},
		{"T=k", atK, k},
	} {
		s2, grad2 := build()
		if tc.steps > 0 {
			s2.SetValues(valuesAtK)
		}
		opt2 := NewAdam(0.05)
		if err := opt2.RestoreState(s2, tc.st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		run(opt2, s2, grad2, total-tc.steps)
		sameBits(tc.name, want, s2.FlattenValues())
	}

	short := AdamState{T: k, M: atK.M[1:], V: atK.V[1:]}
	if err := NewAdam(0.05).RestoreState(s, short); err == nil {
		t.Fatal("RestoreState accepted moments one value short")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Step over a larger parameter set did not panic")
		}
	}()
	s.Add(nn.NewParam("c", 1))
	opt.Step(s)
}
