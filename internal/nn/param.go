// Package nn is the neural-network layer library of nasgo: the stdlib-only
// stand-in for the TensorFlow/Keras stack the paper builds on.
//
// It provides the layers that appear in the CANDLE benchmark networks and in
// the NAS search spaces (Dense, Dropout, Activation, Conv1D, MaxPooling1D,
// Flatten, Concatenate, Add, Identity), a multi-input directed-acyclic-graph
// Model that mirrors Keras's functional API, an LSTM cell for the RL
// controller, and the losses/metrics used for reward estimation (MSE with
// R², softmax cross-entropy with accuracy).
//
// All gradients are computed by hand-written backward passes; a forward pass
// caches whatever its backward needs. Backward passes ACCUMULATE into
// Param.Grad so that weight-shared layers (the paper's MirrorNode, e.g. the
// shared drug-descriptor submodel in Combo) sum their contributions; callers
// zero gradients between steps via Model.ZeroGrad or Params.ZeroGrad.
package nn

import (
	"fmt"

	"nasgo/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
// Layers that share weights hold the same *Param, so sharing is visible to
// optimizers (one state slot) and to parameter counting (counted once).
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a zero-valued parameter with a matching gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// Size returns the number of scalar values in the parameter.
func (p *Param) Size() int { return p.Value.Size() }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

func (p *Param) String() string {
	return fmt.Sprintf("%s%v", p.Name, p.Value.Shape)
}

// ParamSet is an ordered, deduplicated collection of parameters. Order is
// insertion order, so a model built deterministically yields a deterministic
// parameter vector — required for the parameter-server gradient exchange.
type ParamSet struct {
	list []*Param
	seen map[*Param]bool
}

// NewParamSet returns an empty set.
func NewParamSet() *ParamSet {
	return &ParamSet{seen: make(map[*Param]bool)}
}

// Add inserts params not already present (pointer identity).
func (s *ParamSet) Add(ps ...*Param) {
	for _, p := range ps {
		if p == nil || s.seen[p] {
			continue
		}
		s.seen[p] = true
		s.list = append(s.list, p)
	}
}

// List returns the parameters in insertion order.
func (s *ParamSet) List() []*Param { return s.list }

// Count returns the total number of scalar trainable values, counting shared
// parameters once — the paper's "trainable parameters" metric.
func (s *ParamSet) Count() int {
	n := 0
	for _, p := range s.list {
		n += p.Size()
	}
	return n
}

// ZeroGrad clears every gradient in the set.
func (s *ParamSet) ZeroGrad() {
	for _, p := range s.list {
		p.ZeroGrad()
	}
}

// FlattenGrads copies all gradients into a single vector in set order,
// the wire format agents send to the parameter server.
func (s *ParamSet) FlattenGrads() []float64 {
	out := make([]float64, 0, s.Count())
	for _, p := range s.list {
		out = append(out, p.Grad.Data...)
	}
	return out
}

// FlattenValues copies all parameter values into a single vector.
func (s *ParamSet) FlattenValues() []float64 {
	out := make([]float64, 0, s.Count())
	for _, p := range s.list {
		out = append(out, p.Value.Data...)
	}
	return out
}

// SetValues overwrites parameter values from a flat vector produced by
// FlattenValues on an identically shaped set.
func (s *ParamSet) SetValues(v []float64) {
	if len(v) != s.Count() {
		panic(fmt.Sprintf("nn: SetValues length %d, want %d", len(v), s.Count()))
	}
	off := 0
	for _, p := range s.list {
		n := p.Size()
		copy(p.Value.Data, v[off:off+n])
		off += n
	}
}

// SetGrads overwrites gradients from a flat vector (used when applying an
// averaged gradient received from the parameter server).
func (s *ParamSet) SetGrads(g []float64) {
	if len(g) != s.Count() {
		panic(fmt.Sprintf("nn: SetGrads length %d, want %d", len(g), s.Count()))
	}
	off := 0
	for _, p := range s.list {
		n := p.Size()
		copy(p.Grad.Data, g[off:off+n])
		off += n
	}
}
