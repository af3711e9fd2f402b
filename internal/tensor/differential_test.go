package tensor

import (
	"fmt"
	"math"
	"testing"

	"nasgo/internal/rng"
)

// Differential tests: every optimized kernel against a straightforward
// naive reference, over seeded randomized shapes that deliberately straddle
// the blockK boundary (where the matmul k-blocking wraps) and the four-way
// unroll's lanes, from single rows to a few hundred. The three matmuls are
// held to their references bit for bit; the convolutions to rounding noise.

// closeEnough reports near-equality, for the convolution kernels, whose
// accumulation order differs from their naive references'. Differences beyond
// rounding noise are real bugs.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

func compareTensors(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !closeEnough(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %g, reference %g", what, i, got.Data[i], want.Data[i])
		}
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += a.Data[i*k+x] * b.Data[x*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += a.Data[x*m+i] * b.Data[x*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				s += a.Data[i*k+x] * b.Data[j*k+x]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

func naiveConv1D(x, w, b *Tensor, stride int) *Tensor {
	batch, length, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kernel, _, cout := w.Shape[0], w.Shape[1], w.Shape[2]
	outLen := (length-kernel)/stride + 1
	out := New(batch, outLen, cout)
	for n := 0; n < batch; n++ {
		for t := 0; t < outLen; t++ {
			for o := 0; o < cout; o++ {
				var s float64
				if b != nil {
					s = b.Data[o]
				}
				for k := 0; k < kernel; k++ {
					for c := 0; c < cin; c++ {
						s += x.At(n, t*stride+k, c) * w.At(k, c, o)
					}
				}
				out.Set(s, n, t, o)
			}
		}
	}
	return out
}

func naiveConv1DBackward(x, w, dout *Tensor, stride int) (dx, dw, db *Tensor) {
	batch, length, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kernel, _, cout := w.Shape[0], w.Shape[1], w.Shape[2]
	outLen := dout.Shape[1]
	dx = New(batch, length, cin)
	dw = New(kernel, cin, cout)
	db = New(cout)
	for n := 0; n < batch; n++ {
		for t := 0; t < outLen; t++ {
			for o := 0; o < cout; o++ {
				g := dout.At(n, t, o)
				db.Data[o] += g
				for k := 0; k < kernel; k++ {
					for c := 0; c < cin; c++ {
						dw.Set(dw.At(k, c, o)+x.At(n, t*stride+k, c)*g, k, c, o)
						dx.Set(dx.At(n, t*stride+k, c)+w.At(k, c, o)*g, n, t*stride+k, c)
					}
				}
			}
		}
	}
	return dx, dw, db
}

// matmulShapes are (m, k, n) triples chosen to straddle the boundaries:
// k around blockK = 128, single-row and tiny products, and products of a
// few million multiply-adds.
func matmulShapes(r *rng.Rand) [][3]int {
	shapes := [][3]int{
		{3, 4, 5},       // tiny
		{1, 512, 200},   // a single row, large k
		{16, 128, 32},   // k exactly one full block, n a multiple of four
		{16, 128, 31},   // one full block, n%4 = 3
		{16, 127, 33},   // k one short of a full block
		{16, 129, 33},   // k one past a full block
		{40, 256, 24},   // k = 2 full blocks
		{200, 100, 100}, // many rows, k inside one block
	}
	for i := 0; i < 4; i++ {
		shapes = append(shapes, [3]int{1 + r.Intn(64), 1 + r.Intn(300), 1 + r.Intn(64)})
	}
	return shapes
}

// laneShapes walk the kernels' lanes: k across every residue of the four-way
// unroll on both sides of a blockK boundary, and 0; n across short and odd
// row lengths and both sides of the tile's 16 columns and its 1–15-column
// masked tail, and 0; m across single rows, odd counts and 0. {523, 130, n}
// adds a tall, odd row count past one k block.
func laneShapes() [][3]int {
	var shapes [][3]int
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 128} {
		for _, m := range []int{0, 1, 2, 3, 5, 16, 17} {
			for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 127, 128, 129, 130, 131, 300} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
		shapes = append(shapes, [3]int{523, 130, n})
	}
	return shapes
}

// fence is the NaN a fenced destination's sentinels hold.
const fence = 0x7ff8_0000_dead_beef

// fenced returns a NaN-filled [m,n] destination that is a view into a longer
// slice with 16 sentinels on each side, and a check that they are intact: a
// masked store past the end of the last row lands on them.
func fenced(t *testing.T, m, n int) (*Tensor, func(what string)) {
	buf := make([]float64, 16+m*n+16)
	for i := range buf {
		buf[i] = math.Float64frombits(fence)
	}
	return FromSlice(buf[16:16+m*n], m, n), func(what string) {
		t.Helper()
		for i, v := range buf {
			if (i < 16 || i >= 16+m*n) && math.Float64bits(v) != fence {
				t.Fatalf("%s: sentinel %d of the %d-element destination's fence is %g", what, i-16, m*n, v)
			}
		}
	}
}

// kernelPath is one of matmulRows' paths and the value of lanes that selects
// it.
type kernelPath struct {
	name  string
	lanes bool
}

// kernelPaths lists the paths this host runs: the AVX lanes where it has
// them, and always the Go loop.
func kernelPaths() []kernelPath {
	if hasAVX() {
		return []kernelPath{{"avx", true}, {"go", false}}
	}
	return []kernelPath{{"go", false}}
}

// setLanes selects a path for the rest of tb and restores the host's after.
func setLanes(tb testing.TB, on bool) {
	old := lanes
	lanes = on
	tb.Cleanup(func() { lanes = old })
}

// half is 0.5 in a variable, so the compiler cannot fold tiny·half.
var half = 0.5

// onPaths runs f as one subtest per kernel path. After it, a subnormal
// product must still be subnormal: a kernel that left FTZ or DAZ set in
// MXCSR would flush it, and every later reference computed in Go with it.
func onPaths(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			setLanes(t, p.lanes)
			f(t)
			if tiny := math.Float64frombits(2); tiny*half == 0 {
				t.Fatal("a subnormal product flushes to zero after the kernels ran")
			}
		})
	}
}

// sameProduct holds a matmul to its reference bit for bit where the
// reference is a number and as NaN where it is NaN: which of two NaN operands
// an x86 add or multiply returns depends on the order the register allocator
// gave the naive loop, so payloads are not part of the contract.
func sameProduct(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %g (bits %x), want %g (bits %x)",
				what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// specials puts IEEE edge cases into a lane shape's operands. Every regime
// turns 5 % of both operands into −0 and 2 % into subnormals of either sign.
// Regime 1 scales A by 2⁻¹⁰⁰⁰ and B by 2⁻⁴⁰, so every product and sum is
// subnormal; regime 2 puts ±Inf in about a quarter of A's rows and an eighth
// of B's columns, so NaN and ±Inf share vectors with finite lanes.
func specials(r *rng.Rand, regime int, a, b *Tensor, m, n int) {
	for _, x := range []struct {
		t     *Tensor
		scale float64
		infs  int
	}{{a, 0x1p-1000, (m + 3) / 4}, {b, 0x1p-40, (n + 7) / 8}} {
		for i := range x.t.Data {
			if regime == 1 {
				x.t.Data[i] *= x.scale
			}
			switch r.Intn(100) {
			case 0, 1, 2, 3, 4:
				x.t.Data[i] = math.Copysign(0, -1)
			case 5, 6:
				x.t.Data[i] = float64(1+r.Intn(1<<20)) * math.SmallestNonzeroFloat64 * float64(1-2*r.Intn(2))
			}
		}
		for ; regime == 2 && x.infs > 0 && len(x.t.Data) > 0; x.infs-- {
			x.t.Data[r.Intn(len(x.t.Data))] = math.Inf(1 - 2*r.Intn(2))
		}
	}
}

// TestMatMulDifferential holds A×B to the naive triple loop, on each kernel
// path, into NaN-filled destinations: the kernel sums every element over k in
// index order from +0, so unrolling, blocking and vector lanes may not move a
// single ulp, and it may not rely on what dst held. The lane shapes carry
// −0, subnormals and ±Inf, into fenced destinations.
func TestMatMulDifferential(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		r := rng.New(101)
		for _, s := range matmulShapes(r) {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, m, k), randTensor(r, k, n)
			dst := dirty(m, n)
			MatMulInto(dst, a, b)
			sameProduct(t, fmt.Sprintf("MatMulInto %v", s), dst, naiveMatMul(a, b))
		}
		for i, s := range laneShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, m, k), randTensor(r, k, n)
			specials(r, i%3, a, b, m, n)
			dst, intact := fenced(t, m, n)
			MatMulInto(dst, a, b)
			what := fmt.Sprintf("MatMulInto %v regime %d", s, i%3)
			sameProduct(t, what, dst, naiveMatMul(a, b))
			intact(what)
		}
	})
}

// TestMatMulTransADifferential is the same pin for Aᵀ×B, which is the same
// kernel reading A down its columns.
func TestMatMulTransADifferential(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		r := rng.New(102)
		for _, s := range matmulShapes(r) {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, k, m), randTensor(r, k, n)
			dst := dirty(m, n)
			MatMulTransAInto(dst, a, b)
			sameProduct(t, fmt.Sprintf("MatMulTransAInto %v", s), dst, naiveMatMulTransA(a, b))
		}
		for i, s := range laneShapes() {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, k, m), randTensor(r, k, n)
			specials(r, i%3, a, b, m, n)
			dst, intact := fenced(t, m, n)
			MatMulTransAInto(dst, a, b)
			what := fmt.Sprintf("MatMulTransAInto %v regime %d", s, i%3)
			sameProduct(t, what, dst, naiveMatMulTransA(a, b))
			intact(what)
		}
	})
}

// transpose returns the [k,m] transpose of a [m,k] tensor.
func transpose(a *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	at := New(k, m)
	for i := 0; i < m; i++ {
		for x := 0; x < k; x++ {
			at.Data[x*m+i] = a.Data[i*k+x]
		}
	}
	return at
}

// skipMatMul is the naive reference with the zero test the A×B and Aᵀ×B
// kernels carried until they were unrolled: a term whose A factor is ±0 is
// never added. The sparse test uses it to show that dropping the test moved
// no bit.
func skipMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for x := 0; x < k; x++ {
				if av := a.Data[i*k+x]; av != 0 {
					s += av * b.Data[x*n+j]
				}
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// sparsify overwrites a fraction of t with exact zeros of either sign and
// turns every fourth row into a one-hot, the two patterns live traffic has
// (ReLU outputs, the controller's inputs before nn.LSTM took indices).
func sparsify(r *rng.Rand, t *Tensor) {
	rows, cols := t.Shape[0], t.Shape[1]
	for i := range t.Data {
		switch r.Intn(10) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		}
	}
	for i := 0; i < rows; i += 4 {
		row := t.Data[i*cols : (i+1)*cols]
		clear(row)
		row[r.Intn(cols)] = 1
	}
}

// TestMatMulSparseMatchesZeroSkip pins the argument for removing the zero
// test, on each kernel path: with a +0 start no partial sum is ever −0, so
// adding 0·b (either sign, finite b) changes no bit. 20 % exact zeros, −0
// entries in both operands and one-hot rows, compared bitwise with a
// reference that still skips.
func TestMatMulSparseMatchesZeroSkip(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		r := rng.New(106)
		for _, s := range [][3]int{{16, 120, 63}, {16, 63, 31}, {5, 131, 7}, {17, 300, 6}, {523, 130, 3}} {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, m, k), randTensor(r, k, n)
			sparsify(r, a)
			for i := range b.Data {
				if r.Intn(10) == 0 {
					b.Data[i] = math.Copysign(0, -1)
				}
			}
			want := skipMatMul(a, b)
			dst := dirty(m, n)
			MatMulInto(dst, a, b)
			identicalTensors(t, fmt.Sprintf("MatMulInto sparse %v", s), dst, want)
			// Aᵀ×B of the transposed operand is the same product.
			dst = dirty(m, n)
			MatMulTransAInto(dst, transpose(a), b)
			identicalTensors(t, fmt.Sprintf("MatMulTransAInto sparse %v", s), dst, want)
		}
	})
}

// TestMatMulNonFinitePropagates documents the one thing the zero test hid: a
// zero in A against a non-finite element of B is NaN, as IEEE 754 and the
// naive reference have it, not a skipped term. k = 5 runs the four-row pass
// and the remainder; n = 5 puts the infinities in a vector and in its tail.
func TestMatMulNonFinitePropagates(t *testing.T) {
	inf := math.Inf(1)
	a := FromSlice([]float64{
		0, 1, 2, 3, 4,
		1, 1, 0, 0, 1,
	}, 2, 5)
	b := FromSlice([]float64{
		inf, 5, -inf, 5, inf,
		1, 2, 3, 4, 5,
		6, 7, 8, 9, 10,
		1, 1, 1, 1, 1,
		2, 2, 2, 2, 2,
	}, 5, 5)
	want := naiveMatMul(a, b)
	onPaths(t, func(t *testing.T) {
		for what, got := range map[string]*Tensor{
			"MatMulInto":       matMul(a, b),
			"MatMulTransAInto": MatMulTransA(transpose(a), b),
		} {
			sameProduct(t, what, got, want)
			// Row 0 of A starts with 0: 0·±Inf is NaN in columns 0, 2 and 4.
			if !math.IsNaN(got.Data[0]) || !math.IsNaN(got.Data[2]) || !math.IsNaN(got.Data[4]) || got.Data[1] != 27 || got.Data[3] != 33 {
				t.Errorf("%s: row 0 = %v, want [NaN 27 NaN 33 NaN]", what, got.Data[:5])
			}
			if !math.IsInf(got.Data[5], 1) || !math.IsInf(got.Data[7], -1) || !math.IsInf(got.Data[9], 1) || got.Data[6] != 9 || got.Data[8] != 11 {
				t.Errorf("%s: row 1 = %v, want [+Inf 9 -Inf 11 +Inf]", what, got.Data[5:])
			}
		}
	})
}

// TestMatMulTransBDifferential holds A×Bᵀ, formed as production forms it
// (TransposeInto, then MatMulInto), to the naive dot-product reference on
// each kernel path: both sum each element over k in index order from +0, so
// the transpose may not move a single ulp. The lane shapes carry −0,
// subnormals and ±Inf.
func TestMatMulTransBDifferential(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		r := rng.New(103)
		for i, s := range append(matmulShapes(r), laneShapes()...) {
			m, k, n := s[0], s[1], s[2]
			a, b := randTensor(r, m, k), randTensor(r, n, k)
			specials(r, i%3, a, b, m, n)
			bt := dirty(k, n)
			dst, intact := fenced(t, m, n)
			TransposeInto(bt, b)
			MatMulInto(dst, a, bt)
			what := fmt.Sprintf("A×Bᵀ %v regime %d", s, i%3)
			sameProduct(t, what, dst, naiveMatMulTransB(a, b))
			intact(what)
		}
	})
}

// convShapes are (batch, length, cin, kernel, cout, stride) tuples, from a
// single window to batches of tens of thousands of multiply-adds.
func convShapes(r *rng.Rand) [][6]int {
	shapes := [][6]int{
		{1, 8, 2, 3, 4, 1},    // tiny
		{2, 9, 3, 9, 5, 1},    // kernel == length: outLen 1
		{3, 30, 4, 5, 8, 3},   // stride > 1
		{4, 40, 8, 5, 16, 1},  // 92k ops
		{8, 64, 6, 7, 12, 2},  // larger, strided
		{16, 33, 5, 4, 10, 1}, // larger, odd dims
	}
	for i := 0; i < 3; i++ {
		kernel := 1 + r.Intn(6)
		shapes = append(shapes, [6]int{1 + r.Intn(6), kernel + r.Intn(40), 1 + r.Intn(6),
			kernel, 1 + r.Intn(12), 1 + r.Intn(3)})
	}
	return shapes
}

func TestConv1DDifferential(t *testing.T) {
	r := rng.New(104)
	for _, s := range convShapes(r) {
		batch, length, cin, kernel, cout, stride := s[0], s[1], s[2], s[3], s[4], s[5]
		x := randTensor(r, batch, length, cin)
		w := randTensor(r, kernel, cin, cout)
		b := randTensor(r, cout)
		what := fmt.Sprintf("Conv1DInto %v", s)
		got := New(batch, Conv1DOutLen(length, kernel, stride), cout)
		Conv1DInto(got, x, w, b, stride)
		compareTensors(t, what, got, naiveConv1D(x, w, b, stride))
		Conv1DInto(got, x, w, nil, stride)
		compareTensors(t, what+" nil bias", got, naiveConv1D(x, w, nil, stride))
	}
}

func TestConv1DBackwardDifferential(t *testing.T) {
	r := rng.New(105)
	for _, s := range convShapes(r) {
		batch, length, cin, kernel, cout, stride := s[0], s[1], s[2], s[3], s[4], s[5]
		x := randTensor(r, batch, length, cin)
		w := randTensor(r, kernel, cin, cout)
		outLen := (length-kernel)/stride + 1
		dout := randTensor(r, batch, outLen, cout)
		dx, dw, db := New(batch, length, cin), New(kernel, cin, cout), New(cout)
		Conv1DBackwardInto(dx, dw, db, x, w, dout, stride)
		ndx, ndw, ndb := naiveConv1DBackward(x, w, dout, stride)
		what := fmt.Sprintf("Conv1DBackwardInto %v", s)
		compareTensors(t, what+" dx", dx, ndx)
		compareTensors(t, what+" dw", dw, ndw)
		compareTensors(t, what+" db", db, ndb)
	}
}
