package nn

import (
	"fmt"
	"slices"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// Layer is a single-input, single-output differentiable transformation.
// Forward caches whatever Backward needs; a layer instance therefore serves
// one in-flight (forward, backward) pair at a time, which matches how the
// evaluator trains one model per task. Backward returns the gradient with
// respect to the layer input and accumulates parameter gradients; inside a
// Model, a Dense or Conv1D forms that gradient only over the input columns
// that depend on a parameter (Model.Backward), and nil when none does.
//
// The arena parameter is an optional workspace: layers acquire their output
// and temporary buffers from it instead of the heap, and the owner recycles
// them with Arena.Reset once the (forward, backward) pair is done. A nil
// arena means plain heap allocation. Either way the float operations are
// identical in value and order — the arena only changes where buffers live.
type Layer interface {
	// Forward applies the layer. train enables training-only behaviour
	// such as dropout masking.
	Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient.
	Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly shared
	// with other layers). Stateless layers return nil.
	Params() []*Param
}

// Activation kinds supported across the search spaces.
const (
	ActLinear  = "linear"
	ActReLU    = "relu"
	ActTanh    = "tanh"
	ActSigmoid = "sigmoid"
)

// actOf maps a search-space activation name to the fused tensor kernel
// selector.
func actOf(kind string) tensor.Act {
	switch kind {
	case ActLinear, "":
		return tensor.ActIdentity
	case ActReLU:
		return tensor.ActReLU
	case ActTanh:
		return tensor.ActTanh
	case ActSigmoid:
		return tensor.ActSigmoid
	default:
		panic(fmt.Sprintf("nn: unknown activation %q", kind))
	}
}

// Dense is a fully connected layer y = act(xW + b), the paper's
// Dense(units, activation) search-space operation. W has shape [in, units].
type Dense struct {
	W, B       *Param
	Activation string

	x, out *tensor.Tensor // forward caches

	// spans, once a Model has called limitDX with a partial mask, are the
	// input-column runs whose gradient Backward forms, each with a view of
	// its rows of W; limited with no span, Backward forms no dX at all.
	// Unlimited, dX is the one full product.
	limited bool
	spans   []dxSpan
}

// dxSpan is one contiguous run [lo, hi) of a Dense's input columns and the
// matching rows of W, a view that shares W's storage.
type dxSpan struct {
	lo, hi int
	w      *tensor.Tensor
}

// NewDense creates a Dense layer with Glorot-uniform weights and zero bias.
func NewDense(r *rng.Rand, in, units int, activation string) *Dense {
	w := NewParam(fmt.Sprintf("dense_w_%dx%d", in, units), in, units)
	w.Value.GlorotUniform(r, in, units)
	b := NewParam(fmt.Sprintf("dense_b_%d", units), units)
	return &Dense{W: w, B: b, Activation: activation}
}

// NewDenseShared creates a Dense layer that reuses existing parameters —
// the mechanism behind MirrorNode weight sharing.
func NewDenseShared(w, b *Param, activation string) *Dense {
	return &Dense{W: w, B: b, Activation: activation}
}

func (d *Dense) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.W.Value.Shape[0] {
		panic(fmt.Sprintf("nn: Dense input %v, weights %v", x.Shape, d.W.Value.Shape))
	}
	act := actOf(d.Activation)
	d.x = x
	out := ar.Get(x.Shape[0], d.W.Value.Shape[1])
	tensor.DenseForwardInto(out, x, d.W.Value, d.B.Value, act)
	d.out = out
	return out
}

func (d *Dense) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	act := actOf(d.Activation)
	dz := dout
	if act != tensor.ActIdentity {
		dz = ar.Get(dout.Shape...)
		tensor.ActivationBackwardInto(dz, act, d.out, dout)
	}
	dw := d.W.gradDst(ar)
	tensor.MatMulTransAInto(dw, d.x, dz)
	d.W.addGrad(dw)
	db := d.B.gradDst(ar)
	tensor.ColSumsInto(db, dz)
	d.B.addGrad(db)
	if d.limited && len(d.spans) == 0 {
		return nil
	}
	rows, in, units := dout.Shape[0], d.W.Value.Shape[0], d.W.Value.Shape[1]
	dx := ar.Get(rows, in)
	if !d.limited {
		wt := ar.Get(units, in)
		tensor.TransposeInto(wt, d.W.Value)
		tensor.MatMulInto(dx, dz, wt)
		return dx
	}
	// Each element of dX is its own sum over the units, so a span's columns
	// are bit-identical to those of the full product. The columns outside
	// every span stay +0 and are read by nothing.
	for _, s := range d.spans {
		w := s.hi - s.lo
		wt, part := ar.Get(units, w), ar.Get(rows, w)
		tensor.TransposeInto(wt, s.w)
		tensor.MatMulInto(part, dz, wt)
		for r := 0; r < rows; r++ {
			copy(dx.Data[r*in+s.lo:r*in+s.hi], part.Data[r*w:(r+1)*w])
		}
	}
	return dx
}

// limitDX restricts Backward's input gradient to the columns need marks.
func (d *Dense) limitDX(need []bool) {
	d.spans = d.spans[:0]
	d.limited = slices.Contains(need, false)
	if !d.limited {
		return
	}
	units := d.W.Value.Shape[1]
	for lo := 0; lo < len(need); {
		if !need[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < len(need) && need[hi] {
			hi++
		}
		w := tensor.FromSlice(d.W.Value.Data[lo*units:hi*units], hi-lo, units)
		d.spans = append(d.spans, dxSpan{lo: lo, hi: hi, w: w})
		lo = hi
	}
}

func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Identity passes its input through unchanged — the "no layer here" option
// every variable node carries.
type Identity struct{}

func (Identity) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	return x
}
func (Identity) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor { return dout }
func (Identity) Params() []*Param                                              { return nil }

// Activate applies a standalone activation function (the NT3 Act_Node).
type Activate struct {
	Kind string
	out  *tensor.Tensor
}

func (a *Activate) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	act := actOf(a.Kind)
	if act == tensor.ActIdentity {
		a.out = x
		return x
	}
	out := ar.Get(x.Shape...)
	tensor.ActivateInto(out, act, x)
	a.out = out
	return out
}

func (a *Activate) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	act := actOf(a.Kind)
	if act == tensor.ActIdentity {
		return dout
	}
	out := ar.Get(dout.Shape...)
	tensor.ActivationBackwardInto(out, act, a.out, dout)
	return out
}

func (a *Activate) Params() []*Param { return nil }

// Dropout zeroes a fraction Rate of activations during training and scales
// the survivors by 1/(1-Rate) (inverted dropout), matching Keras semantics:
// inference is a no-op.
type Dropout struct {
	Rate float64
	rand *rng.Rand
	mask []float64
}

// NewDropout creates a dropout layer with its own seeded RNG stream.
func NewDropout(r *rng.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %g out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rand: r.Split()}
}

func (d *Dropout) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	if cap(d.mask) < x.Size() {
		d.mask = make([]float64, x.Size())
	} else {
		d.mask = d.mask[:x.Size()]
	}
	out := ar.Get(x.Shape...)
	// Both out and the reused mask are written on every element — the else
	// branch is load-bearing because the buffers carry stale values.
	for i := range x.Data {
		if d.rand.Float64() < keep {
			d.mask[i] = scale
			out.Data[i] = x.Data[i] * scale
		} else {
			d.mask[i] = 0
			out.Data[i] = 0
		}
	}
	return out
}

func (d *Dropout) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	if d.mask == nil {
		return dout
	}
	out := ar.Get(dout.Shape...)
	for i := range dout.Data {
		out.Data[i] = dout.Data[i] * d.mask[i]
	}
	return out
}

func (d *Dropout) Params() []*Param { return nil }

// Conv1D is a 1-D convolution layer over [batch, length, channels] inputs,
// the paper's Conv1D(kernel) operation for traversing long drug descriptors
// and gene-expression profiles.
type Conv1D struct {
	W, B       *Param // W: [kernel, in, filters]
	Stride     int
	Activation string

	x, out *tensor.Tensor

	noDX bool // set by a Model when no input column reaches a parameter
}

// NewConv1D creates a convolution with Glorot-uniform weights.
func NewConv1D(r *rng.Rand, kernel, in, filters, stride int, activation string) *Conv1D {
	w := NewParam(fmt.Sprintf("conv_w_%dx%dx%d", kernel, in, filters), kernel, in, filters)
	w.Value.GlorotUniform(r, kernel*in, kernel*filters)
	b := NewParam(fmt.Sprintf("conv_b_%d", filters), filters)
	return &Conv1D{W: w, B: b, Stride: stride, Activation: activation}
}

func (c *Conv1D) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: Conv1D input %v, want rank 3", x.Shape))
	}
	kernel := c.W.Value.Shape[0]
	if x.Shape[1] < kernel {
		panic(fmt.Sprintf("nn: Conv1D input length %d shorter than kernel %d", x.Shape[1], kernel))
	}
	c.x = x
	outLen := tensor.Conv1DOutLen(x.Shape[1], kernel, c.Stride)
	z := ar.Get(x.Shape[0], outLen, c.W.Value.Shape[2])
	tensor.Conv1DInto(z, x, c.W.Value, c.B.Value, c.Stride)
	act := actOf(c.Activation)
	if act == tensor.ActIdentity {
		c.out = z
		return z
	}
	out := ar.Get(z.Shape...)
	tensor.ActivateInto(out, act, z)
	c.out = out
	return out
}

func (c *Conv1D) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	act := actOf(c.Activation)
	dz := dout
	if act != tensor.ActIdentity {
		dz = ar.Get(dout.Shape...)
		tensor.ActivationBackwardInto(dz, act, c.out, dout)
	}
	var dx *tensor.Tensor
	if !c.noDX {
		dx = ar.Get(c.x.Shape...)
	}
	dw := c.W.gradDst(ar)
	db := c.B.gradDst(ar)
	tensor.Conv1DBackwardInto(dx, dw, db, c.x, c.W.Value, dz, c.Stride)
	c.W.addGrad(dw)
	c.B.addGrad(db)
	return dx
}

// limitDX drops Backward's input gradient when need marks no column.
func (c *Conv1D) limitDX(need []bool) { c.noDX = !slices.Contains(need, true) }

func (c *Conv1D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool1D is a max-pooling layer over [batch, length, channels] inputs.
// Stride follows the Keras default of the pool size when zero.
type MaxPool1D struct {
	Pool, Stride int

	xShape []int
	arg    []int
}

// NewMaxPool1D creates a pooling layer; stride 0 means stride = pool.
func NewMaxPool1D(pool, stride int) *MaxPool1D {
	if stride == 0 {
		stride = pool
	}
	return &MaxPool1D{Pool: pool, Stride: stride}
}

func (m *MaxPool1D) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: MaxPool1D input %v, want rank 3", x.Shape))
	}
	if x.Shape[1] < m.Pool {
		panic(fmt.Sprintf("nn: MaxPool1D input length %d shorter than pool %d", x.Shape[1], m.Pool))
	}
	if cap(m.xShape) < x.Rank() {
		m.xShape = make([]int, x.Rank())
	} else {
		m.xShape = m.xShape[:x.Rank()]
	}
	copy(m.xShape, x.Shape)
	outLen := tensor.Conv1DOutLen(x.Shape[1], m.Pool, m.Stride)
	out := ar.Get(x.Shape[0], outLen, x.Shape[2])
	need := x.Shape[0] * outLen * x.Shape[2]
	if cap(m.arg) < need {
		m.arg = make([]int, need)
	} else {
		m.arg = m.arg[:need]
	}
	tensor.MaxPool1DInto(out, m.arg, x, m.Pool, m.Stride)
	return out
}

func (m *MaxPool1D) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	dx := ar.Get(m.xShape...)
	tensor.MaxPool1DBackwardInto(dx, m.arg, dout)
	return dx
}

func (m *MaxPool1D) Params() []*Param { return nil }

// Flatten reshapes [batch, length, channels] to [batch, length*channels].
type Flatten struct {
	xShape []int
}

func (f *Flatten) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	f.xShape = append(f.xShape[:0], x.Shape...)
	if x.Rank() == 2 {
		return x
	}
	return tensor.Flatten2D(x)
}

func (f *Flatten) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return dout.Reshape(f.xShape...)
}

func (f *Flatten) Params() []*Param { return nil }

// Reshape1D turns a [batch, d] matrix into a [batch, d, 1] sequence so that
// 1-D convolutions can traverse a flat feature vector, as NT3's input layer
// does with the RNA-seq profile.
type Reshape1D struct{}

func (Reshape1D) Forward(x *tensor.Tensor, train bool, ar *tensor.Arena) *tensor.Tensor {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: Reshape1D input rank %d", x.Rank()))
	}
	return x.Reshape(x.Shape[0], x.Shape[1], 1)
}

func (Reshape1D) Backward(dout *tensor.Tensor, ar *tensor.Arena) *tensor.Tensor {
	return dout.Reshape(dout.Shape[0], dout.Shape[1])
}

func (Reshape1D) Params() []*Param { return nil }
