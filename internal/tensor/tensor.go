// Package tensor implements the dense numerical arrays underpinning the
// nasgo deep learning substrate.
//
// The paper's system sits on top of TensorFlow/Keras; this package is the
// stdlib-only replacement. It provides row-major float64 tensors with the
// operations the CANDLE benchmark networks and the RL controller need:
// matrix multiplication (goroutine-parallel and cache-blocked), 1-D
// convolution and max pooling, elementwise arithmetic, reductions, and
// common activations. Shapes are explicit and checked; all shape errors
// panic, because they are programming errors in model construction, not
// recoverable runtime conditions.
package tensor

import (
	"fmt"
	"math"

	"nasgo/internal/rng"
)

// Tensor is a dense row-major array of float64 with an explicit shape.
// A Tensor of shape [r, c] stores element (i, j) at Data[i*c+j]. Rank-1 and
// rank-3 tensors follow the same row-major convention.
type Tensor struct {
	Shape []int
	Data  []float64
}

// New returns a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	// Copy the shape up front and never reference the parameter afterwards:
	// referencing it in the panic below would make it "leak" under escape
	// analysis, forcing every caller's variadic slice onto the heap — which
	// would defeat the zero-allocation guarantee of Arena.Get hits.
	s := append([]int(nil), shape...)
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", s))
		}
		n *= d
	}
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor with the given shape. The data is NOT
// copied. It panics if the element count does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Rows returns the first dimension of a rank >= 1 tensor.
func (t *Tensor) Rows() int {
	if len(t.Shape) == 0 {
		panic("tensor: Rows of rank-0 tensor")
	}
	return t.Shape[0]
}

// Cols returns the second dimension of a rank-2 tensor.
func (t *Tensor) Cols() int {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Cols of rank-%d tensor", len(t.Shape)))
	}
	return t.Shape[1]
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal size. The underlying
// data is shared.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != t.Size() {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

func assertSameShape(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to +0. clear lowers to a memclr; Fill's scalar
// store loop does not, and Arena.Get zeroes every tensor it hands out.
func (t *Tensor) Zero() { clear(t.Data) }

// Randn fills t with N(0, stddev^2) samples from r.
func (t *Tensor) Randn(r *rng.Rand, stddev float64) {
	for i := range t.Data {
		t.Data[i] = r.Norm() * stddev
	}
}

// GlorotUniform fills t (interpreted as a [fanIn, fanOut] weight matrix)
// with the Glorot/Xavier uniform initialization Keras uses by default for
// Dense and Conv1D layers.
func (t *Tensor) GlorotUniform(r *rng.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = (2*r.Float64() - 1) * limit
	}
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Tensor) {
	assertSameShape("AddInPlace", a, b)
	ad := a.Data
	for i, v := range b.Data[:len(ad)] {
		ad[i] += v
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if t.Size() == 0 {
		return 0
	}
	return t.Sum() / float64(t.Size())
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
