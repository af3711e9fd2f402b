// Package optim provides the gradient-descent optimizer used by nasgo: Adam
// (the paper's choice for both reward estimation and post-training, with its
// Keras-default learning rate of 0.001). Its moments are flat vectors in
// ParamSet order, which lists a shared (mirrored) parameter once, so each is
// updated exactly once per Step.
package optim

import (
	"fmt"
	"math"

	"nasgo/internal/nn"
)

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction,
// matching the Keras defaults the paper uses: lr=0.001, beta1=0.9,
// beta2=0.999, eps=1e-7.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	s AdamState
}

// NewAdam returns an Adam optimizer with the given learning rate and Keras
// default moments.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-7}
}

// AdamState is the complete serializable state of an Adam optimizer over a
// fixed parameter set: the step counter and the first/second moments
// flattened in ParamSet order (nil before the first Step). Restoring it into
// a freshly built optimizer continues the update sequence bit-for-bit.
type AdamState struct {
	T int
	M []float64
	V []float64
}

// CaptureState copies the optimizer's state.
func (a *Adam) CaptureState() AdamState {
	return AdamState{T: a.s.T, M: append([]float64(nil), a.s.M...), V: append([]float64(nil), a.s.V...)}
}

// RestoreState installs a captured state for the given parameter set: nil
// moments of an untouched optimizer, or moments of the set's flattened
// length (as every capture before the first Step once stored them: zeros).
func (a *Adam) RestoreState(params *nn.ParamSet, st AdamState) error {
	n := params.Count()
	untouched := st.T == 0 && len(st.M) == 0 && len(st.V) == 0
	if !untouched && (len(st.M) != n || len(st.V) != n) {
		return fmt.Errorf("optim: Adam state has %d/%d moments, parameter set has %d values",
			len(st.M), len(st.V), n)
	}
	a.s = AdamState{T: st.T, M: append([]float64(nil), st.M...), V: append([]float64(nil), st.V...)}
	return nil
}

// Step applies one Adam update from the current gradients, which it leaves
// for the caller to zero. The first Step sizes the moments to params; a later
// Step over a set of another size panics.
func (a *Adam) Step(params *nn.ParamSet) {
	if n := params.Count(); a.s.M == nil {
		a.s.M, a.s.V = make([]float64, n), make([]float64, n)
	} else if len(a.s.M) != n {
		panic(fmt.Sprintf("optim: Adam has %d moments, parameter set has %d values", len(a.s.M), n))
	}
	a.s.T++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.s.T))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.s.T))
	off := 0
	for _, p := range params.List() {
		m, v := a.s.M[off:off+p.Size()], a.s.V[off:off+p.Size()]
		off += p.Size()
		for i, g := range p.Grad.Data {
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.Value.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}
