package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nasgo/internal/rng"
)

// Differential tests: every optimized kernel against a straightforward
// naive reference, over seeded randomized shapes that deliberately straddle
// the parallelThreshold op count (where the row-band goroutine split kicks
// in) and the blockK boundary (where the matmul k-blocking wraps). GOMAXPROCS
// is forced above 1 so the parallel bands genuinely run even on a 1-core
// host. The three matmuls are held to their references bit for bit; the
// convolutions to rounding noise.

// forceParallel raises GOMAXPROCS for the test so parallelRows actually
// splits work across goroutines.
func forceParallel(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

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
// m·k·n around parallelThreshold = 1<<16, k around blockK = 128, plus the
// m = 1 fast path and tiny serial products.
func matmulShapes(r *rng.Rand) [][3]int {
	shapes := [][3]int{
		{3, 4, 5},       // tiny, serial
		{1, 512, 200},   // m=1 fast path, large k
		{16, 128, 32},   // m·k·n = 1<<16 exactly: first parallel product
		{16, 128, 31},   // one column short of the threshold: serial
		{16, 127, 33},   // k one short of a full block
		{16, 129, 33},   // k one past a full block
		{40, 256, 24},   // k = 2 full blocks
		{200, 100, 100}, // well above the threshold, many bands
	}
	for i := 0; i < 4; i++ {
		shapes = append(shapes, [3]int{1 + r.Intn(64), 1 + r.Intn(300), 1 + r.Intn(64)})
	}
	return shapes
}

// laneShapes walk the unrolled kernel's lanes: k across every residue of the
// four-way unroll on both sides of a blockK boundary, n across short and odd
// row lengths, m across single rows and odd counts; {523, 130, n} is above
// parallelThreshold even at n = 1 and splits into uneven bands (131, 131,
// 131, 130) with GOMAXPROCS forced to 4.
func laneShapes() [][3]int {
	var shapes [][3]int
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 31, 63} {
		for _, m := range []int{1, 2, 3, 5, 16, 17} {
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 127, 128, 129, 130, 131, 300} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
		shapes = append(shapes, [3]int{523, 130, n})
	}
	return shapes
}

// TestMatMulDifferential holds A×B to the naive triple loop bit for bit, into
// NaN-filled destinations: the kernel sums every element over k in index
// order from +0, so unrolling and blocking may not move a single ulp, and it
// may not rely on what dst held.
func TestMatMulDifferential(t *testing.T) {
	forceParallel(t)
	r := rng.New(101)
	for _, s := range append(matmulShapes(r), laneShapes()...) {
		m, k, n := s[0], s[1], s[2]
		a, b := randTensor(r, m, k), randTensor(r, k, n)
		dst := dirty(m, n)
		MatMulInto(dst, a, b)
		identicalTensors(t, fmt.Sprintf("MatMulInto %v", s), dst, naiveMatMul(a, b))
	}
}

// TestMatMulTransADifferential is the same pin for Aᵀ×B, which is the same
// kernel reading A down its columns.
func TestMatMulTransADifferential(t *testing.T) {
	forceParallel(t)
	r := rng.New(102)
	for _, s := range append(matmulShapes(r), laneShapes()...) {
		m, k, n := s[0], s[1], s[2]
		a, b := randTensor(r, k, m), randTensor(r, k, n)
		dst := dirty(m, n)
		MatMulTransAInto(dst, a, b)
		identicalTensors(t, fmt.Sprintf("MatMulTransAInto %v", s), dst, naiveMatMulTransA(a, b))
	}
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
// test: with a +0 start no partial sum is ever −0, so adding 0·b (either
// sign, finite b) changes no bit. 20 % exact zeros, −0 entries in both
// operands and one-hot rows, compared bitwise with a reference that still
// skips.
func TestMatMulSparseMatchesZeroSkip(t *testing.T) {
	forceParallel(t)
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
		at := New(k, m)
		for i := 0; i < m; i++ {
			for x := 0; x < k; x++ {
				at.Data[x*m+i] = a.Data[i*k+x]
			}
		}
		dst = dirty(m, n)
		MatMulTransAInto(dst, at, b)
		identicalTensors(t, fmt.Sprintf("MatMulTransAInto sparse %v", s), dst, want)
	}
}

// TestMatMulNonFinitePropagates documents the one thing the zero test hid: a
// zero in A against a non-finite element of B is NaN, as IEEE 754 and the
// naive reference have it, not a skipped term.
func TestMatMulNonFinitePropagates(t *testing.T) {
	a := FromSlice([]float64{0, 1, 2, 3}, 2, 2)
	b := FromSlice([]float64{math.Inf(1), 5, 6, 7}, 2, 2)
	for what, got := range map[string]*Tensor{
		"MatMulInto":       matMul(a, b),
		"MatMulTransAInto": MatMulTransA(FromSlice([]float64{0, 2, 1, 3}, 2, 2), b),
	} {
		// Row 0 of A is (0, 1): 0·Inf + 1·6 and 0·5 + 1·7.
		if !math.IsNaN(got.Data[0]) || got.Data[1] != 7 {
			t.Errorf("%s: row 0 = %v, want [NaN 7]", what, got.Data[:2])
		}
		if !math.IsInf(got.Data[2], 1) || got.Data[3] != 31 {
			t.Errorf("%s: row 1 = %v, want [+Inf 31]", what, got.Data[2:])
		}
	}
	if ref := naiveMatMul(a, b); !math.IsNaN(ref.Data[0]) {
		t.Errorf("naive reference disagrees: %v", ref.Data)
	}
}

// TestMatMulTransBDifferential holds the register-blocked A×Bᵀ kernel to the
// naive reference bit for bit: both sum each element over k in index order,
// so blocking four columns per pass may not move a single ulp. The extra
// shapes walk n across the four-column block and its remainder lanes with k
// on either side of blockK; {520, 130, n} is above parallelThreshold even at
// n = 1, so with GOMAXPROCS forced to 4 every n also runs on the row-band
// path.
func TestMatMulTransBDifferential(t *testing.T) {
	forceParallel(t)
	r := rng.New(103)
	shapes := matmulShapes(r)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 32} {
		shapes = append(shapes, [3]int{3, 127, n}, [3]int{5, 128, n}, [3]int{520, 130, n})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randTensor(r, m, k), randTensor(r, n, k)
		dst := dirty(m, n)
		MatMulTransBInto(dst, a, b)
		identicalTensors(t, fmt.Sprintf("MatMulTransBInto %v", s), dst, naiveMatMulTransB(a, b))
	}
}

// convShapes are (batch, length, cin, kernel, cout, stride) tuples; the
// larger ones push batch·outLen·cout·kernel·cin past parallelThreshold so
// the batch-band split engages.
func convShapes(r *rng.Rand) [][6]int {
	shapes := [][6]int{
		{1, 8, 2, 3, 4, 1},    // tiny, serial
		{2, 9, 3, 9, 5, 1},    // kernel == length: outLen 1
		{3, 30, 4, 5, 8, 3},   // stride > 1
		{4, 40, 8, 5, 16, 1},  // 92k ops: parallel over batch
		{8, 64, 6, 7, 12, 2},  // parallel, strided
		{16, 33, 5, 4, 10, 1}, // parallel, odd dims
	}
	for i := 0; i < 3; i++ {
		kernel := 1 + r.Intn(6)
		shapes = append(shapes, [6]int{1 + r.Intn(6), kernel + r.Intn(40), 1 + r.Intn(6),
			kernel, 1 + r.Intn(12), 1 + r.Intn(3)})
	}
	return shapes
}

func TestConv1DDifferential(t *testing.T) {
	forceParallel(t)
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
	forceParallel(t)
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
