// Package data provides the datasets of the three CANDLE benchmark problems
// the paper evaluates on — Combo, Uno, and NT3 — as deterministic synthetic
// generators.
//
// The original benchmarks pull NCI-ALMANAC drug screens and RNA-seq profiles
// that are multi-gigabyte and access-gated; this package substitutes
// synthetic data with the same multi-input structure and with planted
// response surfaces chosen so that the paper's architectural claims remain
// testable (see DESIGN.md §1):
//
//   - Combo's growth response is symmetric in the two drugs, so sharing the
//     drug-descriptor submodel (MirrorNode) is the right inductive bias;
//   - Uno's dose response enters multiplicatively, so injecting the dose
//     input into later blocks (ConstantNode) helps;
//   - NT3's class signal lives in localized motifs of a long expression
//     profile, so 1-D convolution plus pooling beats flat dense layers.
//
// All generators are pure functions of their configuration (including the
// seed), so every experiment is reproducible.
package data

import (
	"fmt"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// Dataset is a multi-input supervised dataset: one feature matrix per model
// input, row-aligned, with either a regression target or class labels.
type Dataset struct {
	// InputNames labels each input matrix (e.g. "cell.expression").
	InputNames []string
	// Inputs holds one [n, d_i] matrix per model input.
	Inputs []*tensor.Tensor
	// YReg is the [n, 1] regression target, nil for classification.
	YReg *tensor.Tensor
	// YCls holds integer class labels, nil for regression.
	YCls []int
	// NumClasses is the number of classes for classification tasks.
	NumClasses int
}

// N returns the number of examples.
func (d *Dataset) N() int {
	if len(d.Inputs) == 0 {
		return 0
	}
	return d.Inputs[0].Shape[0]
}

// InputDims returns the feature width of each input matrix.
func (d *Dataset) InputDims() []int {
	dims := make([]int, len(d.Inputs))
	for i, in := range d.Inputs {
		dims[i] = in.Shape[1]
	}
	return dims
}

// IsClassification reports whether the dataset carries class labels.
func (d *Dataset) IsClassification() bool { return d.YCls != nil }

// Gather returns the sub-dataset at the given row indices.
func (d *Dataset) Gather(idx []int) *Dataset {
	return d.GatherInto(nil, idx)
}

// GatherInto writes the sub-dataset at the given row indices into dst and
// returns it (a fresh Dataset when dst is nil). Buffers already in dst are
// reused when their shapes match — the steady-state case when a training
// loop gathers every batch of an epoch into the same destination — and
// reallocated otherwise, so the rows dst previously held are overwritten.
func (d *Dataset) GatherInto(dst *Dataset, idx []int) *Dataset {
	if dst == nil {
		dst = &Dataset{}
	}
	dst.InputNames = d.InputNames
	dst.NumClasses = d.NumClasses
	n := len(idx)
	if len(dst.Inputs) != len(d.Inputs) {
		dst.Inputs = make([]*tensor.Tensor, len(d.Inputs))
	}
	for i, in := range d.Inputs {
		t := dst.Inputs[i]
		if t == nil || t.Rank() != 2 || t.Shape[0] != n || t.Shape[1] != in.Shape[1] {
			t = tensor.New(n, in.Shape[1])
			dst.Inputs[i] = t
		}
		tensor.GatherRowsInto(t, in, idx)
	}
	if d.YReg != nil {
		if dst.YReg == nil || dst.YReg.Shape[0] != n || dst.YReg.Shape[1] != d.YReg.Shape[1] {
			dst.YReg = tensor.New(n, d.YReg.Shape[1])
		}
		tensor.GatherRowsInto(dst.YReg, d.YReg, idx)
	} else {
		dst.YReg = nil
	}
	if d.YCls != nil {
		if cap(dst.YCls) < n {
			dst.YCls = make([]int, n)
		}
		dst.YCls = dst.YCls[:n]
		for i, r := range idx {
			dst.YCls[i] = d.YCls[r]
		}
	} else {
		dst.YCls = nil
	}
	return dst
}

// Slice returns rows [lo, hi) as a view: its tensors and labels share the
// receiver's storage, so nothing is copied and a write through either shows
// in both.
func (d *Dataset) Slice(lo, hi int) *Dataset {
	rows := func(t *tensor.Tensor) *tensor.Tensor {
		c := t.Shape[1]
		return tensor.FromSlice(t.Data[lo*c:hi*c], hi-lo, c)
	}
	out := &Dataset{InputNames: d.InputNames, NumClasses: d.NumClasses, Inputs: make([]*tensor.Tensor, len(d.Inputs))}
	for i, in := range d.Inputs {
		out.Inputs[i] = rows(in)
	}
	if d.YReg != nil {
		out.YReg = rows(d.YReg)
	}
	if d.YCls != nil {
		out.YCls = d.YCls[lo:hi:hi]
	}
	return out
}

// Subsample returns a deterministic random subset containing fraction frac
// of the rows (at least one). This implements the paper's low-fidelity
// reward estimation, which trains Combo on 10–40% of the training data.
func (d *Dataset) Subsample(frac float64, r *rng.Rand) *Dataset {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("data: Subsample fraction %g out of (0,1]", frac))
	}
	n := d.N()
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	perm := r.Perm(n)
	return d.Gather(perm[:k])
}
