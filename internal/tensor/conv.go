package tensor

import "fmt"

// Conv1DOutLen returns the output length of a "valid" 1-D convolution or max
// pool with the given window and stride.
func Conv1DOutLen(length, window, stride int) int {
	return (length-window)/stride + 1
}

// Conv1DInto computes a 1-D "valid" convolution (really cross-correlation, as
// in Keras) over x of shape [batch, length, inChannels] with kernel w of
// shape [kernel, inChannels, outChannels] and bias b of shape [outChannels]
// (nil is treated as zeros) into a caller-provided [batch, outLen,
// outChannels] destination, outLen = Conv1DOutLen(length, kernel, stride),
// which must not alias any operand.
func Conv1DInto(dst, x, w, b *Tensor, stride int) {
	if x.Rank() != 3 || w.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Conv1DInto requires rank-3 x and w, got %v, %v", x.Shape, w.Shape))
	}
	if stride < 1 {
		panic("tensor: Conv1DInto stride must be >= 1")
	}
	batch, length, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kernel, cin2, cout := w.Shape[0], w.Shape[1], w.Shape[2]
	if cin != cin2 {
		panic(fmt.Sprintf("tensor: Conv1DInto channel mismatch x=%v w=%v", x.Shape, w.Shape))
	}
	if b != nil && (b.Rank() != 1 || b.Shape[0] != cout) {
		panic(fmt.Sprintf("tensor: Conv1DInto bias shape %v, want [%d]", b.Shape, cout))
	}
	if length < kernel {
		panic(fmt.Sprintf("tensor: Conv1DInto input length %d shorter than kernel %d", length, kernel))
	}
	outLen := Conv1DOutLen(length, kernel, stride)
	if dst.Rank() != 3 || dst.Shape[0] != batch || dst.Shape[1] != outLen || dst.Shape[2] != cout {
		panic(fmt.Sprintf("tensor: Conv1DInto destination %v, want [%d %d %d]", dst.Shape, batch, outLen, cout))
	}
	assertNoAlias("Conv1DInto", dst, x, w, b)
	// Serial path first, closure only on the parallel branch — see serialRows.
	if serialRows(batch, batch*outLen*cout*kernel*cin) {
		conv1DRows(dst, x, w, b, stride, 0, batch)
		return
	}
	parallelRows(batch, func(lo, hi int) {
		conv1DRows(dst, x, w, b, stride, lo, hi)
	})
}

// conv1DRows computes batch rows [lo,hi) of a Conv1DInto call.
func conv1DRows(dst, x, w, b *Tensor, stride, lo, hi int) {
	length, cin := x.Shape[1], x.Shape[2]
	kernel, cout := w.Shape[0], w.Shape[2]
	outLen := dst.Shape[1]
	for n := lo; n < hi; n++ {
		xb := x.Data[n*length*cin : (n+1)*length*cin]
		ob := dst.Data[n*outLen*cout : (n+1)*outLen*cout]
		for t := 0; t < outLen; t++ {
			orow := ob[t*cout : (t+1)*cout]
			if b != nil {
				copy(orow, b.Data)
			} else {
				for o := range orow {
					orow[o] = 0
				}
			}
			start := t * stride
			for k := 0; k < kernel; k++ {
				xrow := xb[(start+k)*cin : (start+k+1)*cin]
				wrow := w.Data[k*cin*cout : (k+1)*cin*cout]
				for c := 0; c < cin; c++ {
					xv := xrow[c]
					if xv == 0 {
						continue
					}
					wr := wrow[c*cout : (c+1)*cout]
					for o, wv := range wr {
						orow[o] += xv * wv
					}
				}
			}
		}
	}
}

// Conv1DBackwardInto computes the gradients of a Conv1DInto call, given dout
// of the output shape [batch, outLen, outChannels], into caller-provided
// destinations shaped like x, w, and the bias, none of which may alias an
// operand.
func Conv1DBackwardInto(dx, dw, db, x, w, dout *Tensor, stride int) {
	batch, length, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kernel, _, cout := w.Shape[0], w.Shape[1], w.Shape[2]
	outLen := dout.Shape[1]
	if dx.Rank() != 3 || dx.Shape[0] != batch || dx.Shape[1] != length || dx.Shape[2] != cin {
		panic(fmt.Sprintf("tensor: Conv1DBackwardInto dx %v, want %v", dx.Shape, x.Shape))
	}
	if dw.Rank() != 3 || dw.Shape[0] != kernel || dw.Shape[1] != cin || dw.Shape[2] != cout {
		panic(fmt.Sprintf("tensor: Conv1DBackwardInto dw %v, want %v", dw.Shape, w.Shape))
	}
	if db.Rank() != 1 || db.Shape[0] != cout {
		panic(fmt.Sprintf("tensor: Conv1DBackwardInto db %v, want [%d]", db.Shape, cout))
	}
	assertNoAlias("Conv1DBackwardInto", dx, x, w, dout)
	assertNoAlias("Conv1DBackwardInto", dw, x, w, dout)
	assertNoAlias("Conv1DBackwardInto", db, x, w, dout)
	dx.Zero()
	dw.Zero()
	db.Zero()
	// Bias and weight gradients accumulate across the batch; keep them
	// single-threaded (they are small) and parallelize dx over the batch.
	for n := 0; n < batch; n++ {
		xb := x.Data[n*length*cin : (n+1)*length*cin]
		gb := dout.Data[n*outLen*cout : (n+1)*outLen*cout]
		for t := 0; t < outLen; t++ {
			grow := gb[t*cout : (t+1)*cout]
			for o, gv := range grow {
				db.Data[o] += gv
			}
			start := t * stride
			for k := 0; k < kernel; k++ {
				xrow := xb[(start+k)*cin : (start+k+1)*cin]
				dwrow := dw.Data[k*cin*cout : (k+1)*cin*cout]
				for c := 0; c < cin; c++ {
					xv := xrow[c]
					if xv == 0 {
						continue
					}
					dwr := dwrow[c*cout : (c+1)*cout]
					for o, gv := range grow {
						dwr[o] += xv * gv
					}
				}
			}
		}
	}
	if serialRows(batch, batch*outLen*cout*kernel*cin) {
		conv1DBackwardDxRows(dx, w, dout, stride, 0, batch)
		return
	}
	parallelRows(batch, func(lo, hi int) {
		conv1DBackwardDxRows(dx, w, dout, stride, lo, hi)
	})
}

// conv1DBackwardDxRows accumulates the input gradient for batch rows [lo,hi).
// Callers hand it a zeroed band.
func conv1DBackwardDxRows(dx, w, dout *Tensor, stride, lo, hi int) {
	length, cin := dx.Shape[1], dx.Shape[2]
	kernel, cout := w.Shape[0], w.Shape[2]
	outLen := dout.Shape[1]
	for n := lo; n < hi; n++ {
		dxb := dx.Data[n*length*cin : (n+1)*length*cin]
		gb := dout.Data[n*outLen*cout : (n+1)*outLen*cout]
		for t := 0; t < outLen; t++ {
			grow := gb[t*cout : (t+1)*cout]
			start := t * stride
			for k := 0; k < kernel; k++ {
				dxrow := dxb[(start+k)*cin : (start+k+1)*cin]
				wrow := w.Data[k*cin*cout : (k+1)*cin*cout]
				for c := 0; c < cin; c++ {
					wr := wrow[c*cout : (c+1)*cout]
					var s float64
					for o, gv := range grow {
						s += gv * wr[o]
					}
					dxrow[c] += s
				}
			}
		}
	}
}

// MaxPool1DInto computes max pooling over x of shape [batch, length,
// channels] with the given pool size and stride (Keras defaults stride to
// the pool size) into a caller-provided [batch, outLen, channels] destination
// and, of matching flat length, the argmax indices into x.Data that
// MaxPool1DBackwardInto scatters through; dst must not alias x.
func MaxPool1DInto(dst *Tensor, arg []int, x *Tensor, pool, stride int) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: MaxPool1DInto requires rank-3 input, got %v", x.Shape))
	}
	if pool < 1 || stride < 1 {
		panic("tensor: MaxPool1DInto pool and stride must be >= 1")
	}
	batch, length, ch := x.Shape[0], x.Shape[1], x.Shape[2]
	if length < pool {
		panic(fmt.Sprintf("tensor: MaxPool1DInto input length %d shorter than pool %d", length, pool))
	}
	outLen := Conv1DOutLen(length, pool, stride)
	if dst.Rank() != 3 || dst.Shape[0] != batch || dst.Shape[1] != outLen || dst.Shape[2] != ch {
		panic(fmt.Sprintf("tensor: MaxPool1DInto destination %v, want [%d %d %d]", dst.Shape, batch, outLen, ch))
	}
	if len(arg) != batch*outLen*ch {
		panic(fmt.Sprintf("tensor: MaxPool1DInto arg length %d, want %d", len(arg), batch*outLen*ch))
	}
	assertNoAlias("MaxPool1DInto", dst, x)
	for n := 0; n < batch; n++ {
		for t := 0; t < outLen; t++ {
			start := t * stride
			for c := 0; c < ch; c++ {
				bestIdx := n*length*ch + start*ch + c
				best := x.Data[bestIdx]
				for k := 1; k < pool; k++ {
					idx := n*length*ch + (start+k)*ch + c
					if x.Data[idx] > best {
						best = x.Data[idx]
						bestIdx = idx
					}
				}
				o := n*outLen*ch + t*ch + c
				dst.Data[o] = best
				arg[o] = bestIdx
			}
		}
	}
}

// MaxPool1DBackwardInto scatters dout back through the argmax indices of
// MaxPool1DInto into a caller-provided destination shaped like the original
// input, which must not alias dout.
func MaxPool1DBackwardInto(dst *Tensor, arg []int, dout *Tensor) {
	if len(arg) != len(dout.Data) {
		panic(fmt.Sprintf("tensor: MaxPool1DBackwardInto arg length %d, want %d", len(arg), len(dout.Data)))
	}
	assertNoAlias("MaxPool1DBackwardInto", dst, dout)
	dst.Zero()
	for o, idx := range arg {
		dst.Data[idx] += dout.Data[o]
	}
}

// Flatten2D reshapes [batch, a, b] to [batch, a*b] (a copy-free view).
func Flatten2D(x *Tensor) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Flatten2D requires rank 3, got %v", x.Shape))
	}
	return x.Reshape(x.Shape[0], x.Shape[1]*x.Shape[2])
}
