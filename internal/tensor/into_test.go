package tensor

import (
	"fmt"
	"math"
	"testing"

	"nasgo/internal/rng"
)

// Destination-passing differential tests: every *Into kernel must write a
// DIRTY destination (pre-filled with NaN, the loudest possible stale value)
// byte-identically to a fresh zeroed one (tensor.New + the same kernel),
// because arena buffers carry whatever the previous batch left behind. The shapes straddle
// blockK exactly like the naive-reference differential suite.

// dirty returns a tensor pre-filled with NaN so any element the kernel fails
// to overwrite (or zero) poisons the comparison.
func dirty(shape ...int) *Tensor {
	t := New(shape...)
	t.Fill(math.NaN())
	return t
}

// identicalTensors requires bitwise equality — the kernel body is the same
// whatever the destination held, so even the last ulp must match.
func identicalTensors(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %g (bits %x), want %g (bits %x)",
				what, i, got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// Fresh-destination forms of the Into kernels: the reference a dirty
// destination is compared with, and the value form the algebra tests want.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Shape[0], b.Shape[1])
	MatMulInto(out, a, b)
	return out
}

// matMulTransB forms A×Bᵀ the way production does: B transposed into a
// buffer, then MatMulInto.
func matMulTransB(a, b *Tensor) *Tensor {
	bt := New(b.Shape[1], b.Shape[0])
	TransposeInto(bt, b)
	return matMul(a, bt)
}

func rowSoftmax(t *Tensor) *Tensor {
	out := New(t.Shape...)
	RowSoftmaxInto(out, t)
	return out
}

func colSums(t *Tensor) *Tensor {
	out := New(t.Shape[1])
	ColSumsInto(out, t)
	return out
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestMatMulIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(201)
	for _, s := range matmulShapes(r) {
		m, k, n := s[0], s[1], s[2]
		a, b := randTensor(r, m, k), randTensor(r, k, n)
		dst := dirty(m, n)
		MatMulInto(dst, a, b)
		identicalTensors(t, fmt.Sprintf("MatMulInto %v", s), dst, matMul(a, b))
	}
}

func TestMatMulTransAIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(202)
	for _, s := range matmulShapes(r) {
		m, k, n := s[0], s[1], s[2]
		a, b := randTensor(r, k, m), randTensor(r, k, n)
		dst := dirty(m, n)
		MatMulTransAInto(dst, a, b)
		identicalTensors(t, fmt.Sprintf("MatMulTransAInto %v", s), dst, MatMulTransA(a, b))
	}
}

// TestTransposeIntoDirtyDstIdentical: TransposeInto writes every element of
// a NaN-filled destination, matching the naive transpose, and refuses a
// destination that is not the transpose's shape.
func TestTransposeIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(203)
	for _, s := range matmulShapes(r) {
		m, k := s[0], s[1]
		a := randTensor(r, m, k)
		dst := dirty(k, m)
		TransposeInto(dst, a)
		identicalTensors(t, fmt.Sprintf("TransposeInto [%d %d]", m, k), dst, transpose(a))
	}
	mustPanic(t, "TransposeInto [3 4] into [3 4]", func() { TransposeInto(New(3, 4), New(3, 4)) })
	mustPanic(t, "TransposeInto rank 1", func() { TransposeInto(New(4, 1), New(4)) })
}

func TestRowKernelsIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(204)
	for _, s := range [][2]int{{1, 1}, {3, 7}, {64, 100}, {257, 33}} {
		rows, cols := s[0], s[1]
		x := randTensor(r, rows, cols)
		what := fmt.Sprintf("[%d %d]", rows, cols)

		dst := dirty(rows, cols)
		RowSoftmaxInto(dst, x)
		identicalTensors(t, "RowSoftmaxInto "+what, dst, rowSoftmax(x))

		cs := dirty(cols)
		ColSumsInto(cs, x)
		identicalTensors(t, "ColSumsInto "+what, cs, colSums(x))

		idx := make([]int, rows+3)
		for i := range idx {
			idx[i] = r.Intn(rows)
		}
		gr, grRef := dirty(len(idx), cols), New(len(idx), cols)
		GatherRowsInto(gr, x, idx)
		GatherRowsInto(grRef, x, idx)
		identicalTensors(t, "GatherRowsInto "+what, gr, grRef)
	}
}

func TestConcatSplitIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(205)
	rows := 17
	widths := []int{5, 1, 12}
	ts := make([]*Tensor, len(widths))
	total := 0
	for i, w := range widths {
		ts[i] = randTensor(r, rows, w)
		total += w
	}
	dst, dstRef := dirty(rows, total), New(rows, total)
	ConcatColsInto(dst, ts...)
	ConcatColsInto(dstRef, ts...)
	identicalTensors(t, "ConcatColsInto", dst, dstRef)

	parts, ref := make([]*Tensor, len(widths)), make([]*Tensor, len(widths))
	for i, w := range widths {
		parts[i], ref[i] = dirty(rows, w), New(rows, w)
	}
	SplitColsInto(parts, dst, widths)
	SplitColsInto(ref, dst, widths)
	for i := range parts {
		identicalTensors(t, fmt.Sprintf("SplitColsInto[%d]", i), parts[i], ref[i])
	}
}

func TestConvIntoDirtyDstIdentical(t *testing.T) {
	r := rng.New(206)
	for _, s := range convShapes(r) {
		batch, length, cin, kernel, cout, stride := s[0], s[1], s[2], s[3], s[4], s[5]
		x := randTensor(r, batch, length, cin)
		w := randTensor(r, kernel, cin, cout)
		b := randTensor(r, cout)
		outLen := Conv1DOutLen(length, kernel, stride)
		what := fmt.Sprintf("Conv1DInto %v", s)

		dst, ref := dirty(batch, outLen, cout), New(batch, outLen, cout)
		Conv1DInto(dst, x, w, b, stride)
		Conv1DInto(ref, x, w, b, stride)
		identicalTensors(t, what, dst, ref)
		dst = dirty(batch, outLen, cout)
		Conv1DInto(dst, x, w, nil, stride)
		Conv1DInto(ref, x, w, nil, stride)
		identicalTensors(t, what+" nil bias", dst, ref)

		dout := randTensor(r, batch, outLen, cout)
		dx, dw, db := dirty(batch, length, cin), dirty(kernel, cin, cout), dirty(cout)
		Conv1DBackwardInto(dx, dw, db, x, w, dout, stride)
		rdx, rdw, rdb := New(batch, length, cin), New(kernel, cin, cout), New(cout)
		Conv1DBackwardInto(rdx, rdw, rdb, x, w, dout, stride)
		identicalTensors(t, what+" dx", dx, rdx)
		identicalTensors(t, what+" dw", dw, rdw)
		identicalTensors(t, what+" db", db, rdb)

		pool, pstride := kernel, stride // reuse window params for pooling
		pOutLen := Conv1DOutLen(length, pool, pstride)
		pdst := dirty(batch, pOutLen, cin)
		arg := make([]int, batch*pOutLen*cin)
		MaxPool1DInto(pdst, arg, x, pool, pstride)
		pref, argRef := New(batch, pOutLen, cin), make([]int, len(arg))
		MaxPool1DInto(pref, argRef, x, pool, pstride)
		identicalTensors(t, what+" maxpool", pdst, pref)
		for i := range argRef {
			if arg[i] != argRef[i] {
				t.Fatalf("%s maxpool arg[%d] = %d, want %d", what, i, arg[i], argRef[i])
			}
		}
		pdout := randTensor(r, batch, pOutLen, cin)
		pdx, pdxRef := dirty(batch, length, cin), New(batch, length, cin)
		MaxPool1DBackwardInto(pdx, arg, pdout)
		MaxPool1DBackwardInto(pdxRef, argRef, pdout)
		identicalTensors(t, what+" maxpool backward", pdx, pdxRef)
	}
}

// TestDenseForwardIntoMatchesSeparatePasses pins the fusion claim: matmul +
// bias broadcast + activation in one pass must be byte-identical to the
// historical three-kernel composition, for every activation, across the
// threshold-straddling shapes.
func TestDenseForwardIntoMatchesSeparatePasses(t *testing.T) {
	r := rng.New(207)
	acts := []Act{ActIdentity, ActReLU, ActTanh, ActSigmoid}
	actFns := map[Act]func(float64) float64{
		ActReLU: func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		},
		ActTanh:    math.Tanh,
		ActSigmoid: func(v float64) float64 { return 1 / (1 + math.Exp(-v)) },
	}
	for _, s := range matmulShapes(r) {
		m, k, n := s[0], s[1], s[2]
		x, w := randTensor(r, m, k), randTensor(r, k, n)
		bias := randTensor(r, n)
		for _, act := range acts {
			dst := dirty(m, n)
			DenseForwardInto(dst, x, w, bias, act)
			f := actFns[act]
			if f == nil {
				f = func(v float64) float64 { return v }
			}
			want := matMul(x, w)
			for i, v := range want.Data {
				want.Data[i] = f(v + bias.Data[i%n])
			}
			identicalTensors(t, fmt.Sprintf("DenseForwardInto %v %v", s, act), dst, want)

			dst = dirty(m, n)
			DenseForwardInto(dst, x, w, nil, act)
			want = matMul(x, w)
			for i, v := range want.Data {
				want.Data[i] = f(v)
			}
			identicalTensors(t, fmt.Sprintf("DenseForwardInto %v %v nil bias", s, act), dst, want)
		}
	}
}

func TestActivationKernelsMatchReference(t *testing.T) {
	r := rng.New(208)
	x := randTensor(r, 37, 19)
	a := randTensor(r, 37, 19)
	dout := randTensor(r, 37, 19)
	refs := map[Act]func(int) float64{
		ActIdentity: func(i int) float64 { return dout.Data[i] },
		ActReLU: func(i int) float64 {
			if a.Data[i] > 0 {
				return dout.Data[i]
			}
			return 0
		},
		ActTanh:    func(i int) float64 { return dout.Data[i] * (1 - a.Data[i]*a.Data[i]) },
		ActSigmoid: func(i int) float64 { return dout.Data[i] * a.Data[i] * (1 - a.Data[i]) },
	}
	for act, ref := range refs {
		dst := dirty(37, 19)
		ActivationBackwardInto(dst, act, a, dout)
		for i := range dst.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(ref(i)) {
				t.Fatalf("ActivationBackwardInto %v element %d = %g, want %g", act, i, dst.Data[i], ref(i))
			}
		}
	}
	fwd := map[Act]func(float64) float64{
		ActIdentity: func(v float64) float64 { return v },
		ActReLU: func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		},
		ActTanh:    math.Tanh,
		ActSigmoid: func(v float64) float64 { return 1 / (1 + math.Exp(-v)) },
	}
	for act, f := range fwd {
		dst := dirty(37, 19)
		ActivateInto(dst, act, x)
		want := New(37, 19)
		for i, v := range x.Data {
			want.Data[i] = f(v)
		}
		identicalTensors(t, fmt.Sprintf("ActivateInto %v", act), dst, want)
	}
}

// TestIntoAliasingPanics pins the aliasing guard: a destination overlapping
// any source operand must panic rather than silently corrupt the result.
func TestIntoAliasingPanics(t *testing.T) {
	r := rng.New(209)
	n := 8
	sq := randTensor(r, n, n)         // square so dst can share its buffer
	alias := FromSlice(sq.Data, n, n) // same backing array
	tail := FromSlice(sq.Data[len(sq.Data)-n:], n)
	other := randTensor(r, n, n)

	mustPanic(t, "MatMulInto dst=a", func() { MatMulInto(alias, sq, other) })
	mustPanic(t, "MatMulInto dst=b", func() { MatMulInto(alias, other, sq) })
	mustPanic(t, "MatMulTransAInto", func() { MatMulTransAInto(alias, sq, other) })
	mustPanic(t, "TransposeInto", func() { TransposeInto(alias, sq) })
	mustPanic(t, "DenseForwardInto dst=x", func() { DenseForwardInto(alias, sq, other, nil, ActReLU) })
	mustPanic(t, "DenseForwardInto dst~bias", func() { DenseForwardInto(alias, other, other, tail, ActReLU) })
	mustPanic(t, "ActivateInto", func() { ActivateInto(alias, ActTanh, sq) })
	mustPanic(t, "ActivationBackwardInto dst=a", func() { ActivationBackwardInto(alias, ActTanh, sq, other) })
	mustPanic(t, "ActivationBackwardInto dst=dout", func() { ActivationBackwardInto(alias, ActTanh, other, sq) })
	mustPanic(t, "RowSoftmaxInto", func() { RowSoftmaxInto(alias, sq) })
	mustPanic(t, "ColSumsInto", func() { ColSumsInto(tail, sq) })
	mustPanic(t, "GatherRowsInto", func() { GatherRowsInto(alias, sq, []int{0, 1, 2, 3, 4, 5, 6, 7}) })
	mustPanic(t, "ConcatColsInto", func() {
		half := FromSlice(sq.Data[:n*n/2], n, n/2)
		ConcatColsInto(alias, half, half)
	})
	mustPanic(t, "SplitColsInto", func() {
		half := FromSlice(sq.Data[:n*n/2], n, n/2)
		SplitColsInto([]*Tensor{half, New(n, n/2)}, sq, []int{n / 2, n / 2})
	})

	x3 := randTensor(r, 2, 6, 2)
	w3 := randTensor(r, 3, 2, 2)
	x3alias := FromSlice(x3.Data[:2*4*2], 2, 4, 2)
	mustPanic(t, "Conv1DInto", func() { Conv1DInto(x3alias, x3, w3, nil, 1) })
	outLen := Conv1DOutLen(6, 3, 1)
	dout3 := randTensor(r, 2, outLen, 2)
	mustPanic(t, "Conv1DBackwardInto dx=x", func() {
		Conv1DBackwardInto(x3, New(3, 2, 2), New(2), x3, w3, dout3, 1)
	})
	arg := make([]int, 2*Conv1DOutLen(6, 2, 2)*2)
	mustPanic(t, "MaxPool1DInto", func() { MaxPool1DInto(FromSlice(x3.Data[:2*3*2], 2, 3, 2), arg, x3, 2, 2) })
	mustPanic(t, "MaxPool1DBackwardInto", func() { MaxPool1DBackwardInto(dout3, make([]int, dout3.Size()), dout3) })
}

func TestArenaGetZeroedAndRecycled(t *testing.T) {
	ar := NewArena()
	a := ar.Get(4, 5)
	if fmt.Sprint(a.Shape) != "[4 5]" {
		t.Fatalf("Get shape %v", a.Shape)
	}
	for i := range a.Data {
		if a.Data[i] != 0 {
			t.Fatalf("fresh Get not zeroed at %d", i)
		}
	}
	a.Fill(3.5)
	b := ar.Get(4, 5)
	if &b.Data[0] == &a.Data[0] {
		t.Fatal("second Get before Reset returned the live buffer")
	}
	if ar.Live() != 2 {
		t.Fatalf("Live = %d, want 2", ar.Live())
	}
	ar.Reset()
	if ar.Live() != 0 || ar.Pooled() != 2 {
		t.Fatalf("after Reset: Live=%d Pooled=%d, want 0/2", ar.Live(), ar.Pooled())
	}
	c := ar.Get(4, 5)
	if &c.Data[0] != &b.Data[0] && &c.Data[0] != &a.Data[0] {
		t.Fatal("Get after Reset did not recycle a pooled buffer")
	}
	for i := range c.Data {
		if c.Data[i] != 0 {
			t.Fatalf("recycled Get not zeroed at %d (stale %g)", i, c.Data[i])
		}
	}
	// Distinct shapes use distinct free lists; [5 4] must not recycle [4 5].
	d := ar.Get(5, 4)
	if &d.Data[0] == &a.Data[0] || &d.Data[0] == &b.Data[0] {
		t.Fatal("shape [5 4] recycled a [4 5] buffer")
	}
	// Rank-1 and rank-3 shapes round-trip too.
	ar.Get(7)
	ar.Get(2, 3, 4)
	ar.Reset()
	if ar.Live() != 0 {
		t.Fatalf("Live after final Reset = %d", ar.Live())
	}
}

func TestArenaNilSafe(t *testing.T) {
	var ar *Arena
	x := ar.Get(3, 3)
	for i := range x.Data {
		if x.Data[i] != 0 {
			t.Fatal("nil arena Get not zeroed")
		}
	}
	ar.Reset() // must not panic
	if ar.Live() != 0 || ar.Pooled() != 0 {
		t.Fatal("nil arena reports live/pooled buffers")
	}
}
