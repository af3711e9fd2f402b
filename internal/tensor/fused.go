package tensor

import (
	"fmt"
	"math"
)

// Act selects the activation fused into DenseForwardInto / ActivateInto.
// The per-element expressions are written to be bit-identical to applying
// the same activation in a separate pass: fusion changes when each element
// is computed, never the float expression or the element order within a
// buffer.
type Act int

const (
	ActIdentity Act = iota
	ActReLU
	ActTanh
	ActSigmoid
)

func (a Act) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	case ActSigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Act(%d)", int(a))
	}
}

// DenseForwardInto computes dst = act(x×W + bias) in one fused pass:
// MatMulInto fills dst, then a single row-major sweep adds the bias
// broadcast and applies the activation in place, the float-op order of three
// separate passes. bias may be nil (treated as absent). dst must not alias
// any operand.
func DenseForwardInto(dst, x, w, bias *Tensor, act Act) {
	if bias != nil && (bias.Rank() != 1 || bias.Shape[0] != w.Shape[1]) {
		panic(fmt.Sprintf("tensor: DenseForwardInto bias %v, want [%d]", bias.Shape, w.Shape[1]))
	}
	assertNoAlias("DenseForwardInto", dst, bias)
	MatMulInto(dst, x, w)
	rows, cols := dst.Shape[0], dst.Shape[1]
	if bias == nil && act == ActIdentity {
		return
	}
	for i := 0; i < rows; i++ {
		orow := dst.Data[i*cols : (i+1)*cols]
		if bias != nil {
			for j := range orow {
				orow[j] += bias.Data[j]
			}
		}
		applyAct(act, orow, orow)
	}
}

// ActivateInto computes dst = act(x) elementwise. dst must be shaped like x
// and must not alias it. For ActIdentity this is a plain copy — callers that
// want the zero-copy linear path should branch before calling.
func ActivateInto(dst *Tensor, act Act, x *Tensor) {
	if dst.Size() != x.Size() {
		panic(fmt.Sprintf("tensor: ActivateInto destination %v, want size of %v", dst.Shape, x.Shape))
	}
	assertNoAlias("ActivateInto", dst, x)
	applyAct(act, dst.Data, x.Data)
}

// applyAct writes dst[j] = act(src[j]), the switch hoisted out of the loop;
// dst may be src, as in DenseForwardInto's in-place sweep.
func applyAct(act Act, dst, src []float64) {
	switch act {
	case ActIdentity:
		copy(dst, src)
	case ActReLU:
		for j, v := range src {
			if v > 0 {
				dst[j] = v
			} else {
				dst[j] = 0
			}
		}
	case ActTanh:
		for j, v := range src {
			dst[j] = math.Tanh(v)
		}
	case ActSigmoid:
		for j, v := range src {
			dst[j] = 1 / (1 + math.Exp(-v))
		}
	default:
		panic(fmt.Sprintf("tensor: unknown activation %v", act))
	}
}

// ActivationBackwardInto computes dst = dL/dz from dout = dL/da and the
// cached post-activation output a = act(z), fused into one sweep. Every
// element of dst is written (reused buffers carry stale values, so the zero
// branches are explicit). dst must not alias a or dout. ActIdentity callers
// should pass dout through without a buffer; calling it here copies.
func ActivationBackwardInto(dst *Tensor, act Act, a, dout *Tensor) {
	if dst.Size() != dout.Size() || a.Size() != dout.Size() {
		panic(fmt.Sprintf("tensor: ActivationBackwardInto sizes dst=%v a=%v dout=%v", dst.Shape, a.Shape, dout.Shape))
	}
	assertNoAlias("ActivationBackwardInto", dst, a, dout)
	switch act {
	case ActIdentity:
		copy(dst.Data, dout.Data)
	case ActReLU:
		for i := range dout.Data {
			if a.Data[i] > 0 {
				dst.Data[i] = dout.Data[i]
			} else {
				dst.Data[i] = 0
			}
		}
	case ActTanh:
		for i := range dout.Data {
			dst.Data[i] = dout.Data[i] * (1 - float64(a.Data[i]*a.Data[i]))
		}
	case ActSigmoid:
		for i := range dout.Data {
			dst.Data[i] = dout.Data[i] * a.Data[i] * (1 - a.Data[i])
		}
	default:
		panic(fmt.Sprintf("tensor: unknown activation %v", act))
	}
}
