// Package optim provides the gradient-descent optimizer used by nasgo: Adam
// (the paper's choice for both reward estimation and post-training, with its
// Keras-default learning rate of 0.001). It keeps per-parameter state keyed
// by parameter identity, so shared (mirrored) parameters are updated exactly
// once per Step.
package optim

import (
	"fmt"
	"math"

	"nasgo/internal/nn"
)

// Optimizer updates a parameter set in place from its accumulated gradients.
type Optimizer interface {
	// Step applies one update using the current gradients. It does not
	// zero the gradients; callers do that before the next backward pass.
	Step(params *nn.ParamSet)
}

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// matching the Keras defaults the paper uses: lr=0.001, beta1=0.9,
// beta2=0.999, eps=1e-7.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*nn.Param][]float64
	v map[*nn.Param][]float64
}

// NewAdam returns an Adam optimizer with the given learning rate and Keras
// default moments.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7,
		m: make(map[*nn.Param][]float64),
		v: make(map[*nn.Param][]float64),
	}
}

// AdamState is the complete serializable state of an Adam optimizer over a
// fixed parameter set: the step counter and the first/second moments
// flattened in ParamSet order. Restoring it into a freshly built optimizer
// continues the update sequence bit-for-bit.
type AdamState struct {
	T int
	M []float64
	V []float64
}

// CaptureState flattens the optimizer's moments in the order of params.
// Parameters the optimizer has not yet touched contribute zeros, matching
// the lazy initialization Step performs.
func (a *Adam) CaptureState(params *nn.ParamSet) AdamState {
	st := AdamState{T: a.t}
	n := params.Count()
	st.M = make([]float64, 0, n)
	st.V = make([]float64, 0, n)
	for _, p := range params.List() {
		m, v := a.m[p], a.v[p]
		if m == nil {
			m = make([]float64, p.Size())
			v = make([]float64, p.Size())
		}
		st.M = append(st.M, m...)
		st.V = append(st.V, v...)
	}
	return st
}

// RestoreState installs a captured state, keyed to the given parameter set
// (which must have the same flattened length as the one captured from).
func (a *Adam) RestoreState(params *nn.ParamSet, st AdamState) error {
	n := params.Count()
	if len(st.M) != n || len(st.V) != n {
		return fmt.Errorf("optim: Adam state has %d/%d moments, parameter set has %d values",
			len(st.M), len(st.V), n)
	}
	a.t = st.T
	a.m = make(map[*nn.Param][]float64)
	a.v = make(map[*nn.Param][]float64)
	off := 0
	for _, p := range params.List() {
		size := p.Size()
		a.m[p] = append([]float64(nil), st.M[off:off+size]...)
		a.v[p] = append([]float64(nil), st.V[off:off+size]...)
		off += size
	}
	return nil
}

// Step applies one Adam update.
func (a *Adam) Step(params *nn.ParamSet) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params.List() {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, p.Size())
			a.m[p] = m
			a.v[p] = make([]float64, p.Size())
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.Value.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}
