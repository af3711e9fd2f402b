package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nasgo/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randTensor(r *rng.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.Randn(r, 1)
	return t
}

func TestNewZeroed(t *testing.T) {
	x := New(3, 4)
	if x.Size() != 12 {
		t.Fatalf("size = %d, want 12", x.Size())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	x := New(2, 3)
	x.Set(5, 1, 2)
	if x.At(1, 2) != 5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if x.Data[1*3+2] != 5 {
		t.Fatal("row-major layout violated")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 9
	if x.Data[0] != 9 {
		t.Fatal("Reshape must share data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := New(2, 2)
	y := x.Clone()
	y.Data[0] = 1
	if x.Data[0] != 0 {
		t.Fatal("Clone must copy data")
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randTensor(r, 3, 5)
		b := randTensor(r, 3, 5)
		c := a.Clone()
		AddInPlace(c, b)
		for i := range b.Data {
			b.Data[i] = -b.Data[i]
		}
		AddInPlace(c, b)
		for i := range a.Data {
			if !almostEqual(c.Data[i], a.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddInPlace(New(2, 2), New(2, 3))
}

func matmulNaive(a, b *Tensor) *Tensor {
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

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {64, 33, 17}, {130, 64, 50}} {
		a := randTensor(r, dims[0], dims[1])
		b := randTensor(r, dims[1], dims[2])
		got := matMul(a, b)
		want := matmulNaive(a, b)
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("dims %v: element %d = %g, want %g", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(2)
	a := randTensor(r, 5, 5)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(1, i, i)
	}
	got := matMul(a, eye)
	for i := range a.Data {
		if !almostEqual(got.Data[i], a.Data[i], 1e-12) {
			t.Fatal("A×I != A")
		}
	}
}

func TestMatMulLinearity(t *testing.T) {
	// (A+B)×C == A×C + B×C
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randTensor(r, 4, 6)
		b := randTensor(r, 4, 6)
		c := randTensor(r, 6, 3)
		rhs := matMul(a, c)
		AddInPlace(rhs, matMul(b, c))
		AddInPlace(a, b)
		lhs := matMul(a, c)
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(3)
	a := randTensor(r, 6, 4)
	b := randTensor(r, 5, 4)
	got := matMulTransB(a, b)
	want := naiveMatMulTransB(a, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatal("MatMulTransB disagrees with the naive reference")
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(4)
	a := randTensor(r, 4, 6)
	b := randTensor(r, 4, 5)
	got := MatMulTransA(a, b)
	want := naiveMatMulTransA(a, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatal("MatMulTransA disagrees with the naive reference")
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	matMul(New(2, 3), New(4, 2))
}

func TestConcatSplitRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randTensor(r, 3, 2)
		b := randTensor(r, 3, 5)
		c := randTensor(r, 3, 1)
		cat := New(3, 8)
		ConcatColsInto(cat, a, b, c)
		parts := []*Tensor{New(3, 2), New(3, 5), New(3, 1)}
		SplitColsInto(parts, cat, []int{2, 5, 1})
		for i := range a.Data {
			if parts[0].Data[i] != a.Data[i] {
				return false
			}
		}
		for i := range b.Data {
			if parts[1].Data[i] != b.Data[i] {
				return false
			}
		}
		for i := range c.Data {
			if parts[2].Data[i] != c.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSoftmax(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 1000, 1000, 1000}, 2, 3)
	s := rowSoftmax(x)
	for i := 0; i < 2; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			v := s.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax element out of range: %g", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-12) {
			t.Fatalf("softmax row %d sums to %g", i, sum)
		}
	}
	if s.At(0, 2) <= s.At(0, 0) {
		t.Fatal("softmax not monotone")
	}
	// Row of equal logits must be uniform, even at extreme magnitude.
	if !almostEqual(s.At(1, 0), 1.0/3, 1e-12) {
		t.Fatal("softmax not stable for large logits")
	}
}

func TestArgmaxRows(t *testing.T) {
	x := FromSlice([]float64{0, 5, 1, 9, 2, 3}, 2, 3)
	got := ArgmaxRows(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func TestAddRowVectorColSums(t *testing.T) {
	// The fused dense kernel's bias add is the row-vector add: 0×0 + v.
	v := FromSlice([]float64{1, 2}, 2)
	y := New(3, 2)
	DenseForwardInto(y, New(3, 1), New(1, 2), v, ActIdentity)
	sums := colSums(y)
	if sums.Data[0] != 3 || sums.Data[1] != 6 {
		t.Fatalf("ColSums = %v", sums.Data)
	}
}

func TestSliceGatherRows(t *testing.T) {
	x := FromSlice([]float64{0, 1, 10, 11, 20, 21}, 3, 2)
	s := New(2, 2)
	GatherRowsInto(s, x, []int{1, 2}) // a contiguous slice is a gather too
	if s.At(0, 0) != 10 || s.At(1, 1) != 21 {
		t.Fatal("GatherRowsInto wrong contents for a contiguous range")
	}
	g := New(2, 2)
	GatherRowsInto(g, x, []int{2, 0})
	if g.At(0, 0) != 20 || g.At(1, 1) != 1 {
		t.Fatal("GatherRowsInto wrong contents")
	}
}

func conv1dNaive(x, w, b *Tensor, stride int) *Tensor {
	batch, length, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kernel, _, cout := w.Shape[0], w.Shape[1], w.Shape[2]
	outLen := (length-kernel)/stride + 1
	out := New(batch, outLen, cout)
	for n := 0; n < batch; n++ {
		for t := 0; t < outLen; t++ {
			for o := 0; o < cout; o++ {
				s := 0.0
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

func TestConv1DAgainstNaive(t *testing.T) {
	r := rng.New(5)
	for _, cfg := range []struct{ batch, length, cin, kernel, cout, stride int }{
		{1, 8, 1, 3, 2, 1},
		{2, 16, 3, 5, 4, 1},
		{3, 20, 2, 4, 3, 2},
	} {
		x := randTensor(r, cfg.batch, cfg.length, cfg.cin)
		w := randTensor(r, cfg.kernel, cfg.cin, cfg.cout)
		b := randTensor(r, cfg.cout)
		got := New(cfg.batch, Conv1DOutLen(cfg.length, cfg.kernel, cfg.stride), cfg.cout)
		Conv1DInto(got, x, w, b, cfg.stride)
		want := conv1dNaive(x, w, b, cfg.stride)
		if !SameShape(got, want) {
			t.Fatalf("cfg %+v: shape %v want %v", cfg, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
				t.Fatalf("cfg %+v: mismatch at %d", cfg, i)
			}
		}
	}
}

// TestConv1DGradients checks Conv1DBackwardInto against central finite
// differences of a scalar loss L = sum(conv(x,w,b)).
func TestConv1DGradients(t *testing.T) {
	r := rng.New(6)
	x := randTensor(r, 2, 10, 2)
	w := randTensor(r, 3, 2, 3)
	b := randTensor(r, 3)
	stride := 1
	out := New(2, Conv1DOutLen(10, 3, stride), 3)
	dout := New(out.Shape...)
	dout.Fill(1)
	dx, dw, db := New(x.Shape...), New(w.Shape...), New(b.Shape...)
	Conv1DBackwardInto(dx, dw, db, x, w, dout, stride)

	loss := func() float64 {
		Conv1DInto(out, x, w, b, stride)
		return out.Sum()
	}
	const h = 1e-6
	check := func(name string, param, grad *Tensor) {
		for i := range param.Data {
			old := param.Data[i]
			param.Data[i] = old + h
			lp := loss()
			param.Data[i] = old - h
			lm := loss()
			param.Data[i] = old
			fd := (lp - lm) / (2 * h)
			if !almostEqual(fd, grad.Data[i], 1e-4) {
				t.Fatalf("%s grad[%d] = %g, finite diff %g", name, i, grad.Data[i], fd)
			}
		}
	}
	check("dx", x, dx)
	check("dw", w, dw)
	check("db", b, db)
}

func TestMaxPool1D(t *testing.T) {
	x := FromSlice([]float64{1, 5, 2, 8, 3, 0}, 1, 6, 1)
	out, arg := New(1, 3, 1), make([]int, 3)
	MaxPool1DInto(out, arg, x, 2, 2)
	want := []float64{5, 8, 3}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("pool[%d] = %g, want %g", i, out.Data[i], v)
		}
	}
	// Backward routes gradient to the argmax positions only.
	dout := FromSlice([]float64{1, 1, 1}, 1, 3, 1)
	dx := New(x.Shape...)
	MaxPool1DBackwardInto(dx, arg, dout)
	wantDx := []float64{0, 1, 0, 1, 1, 0}
	for i, v := range wantDx {
		if dx.Data[i] != v {
			t.Fatalf("dx[%d] = %g, want %g", i, dx.Data[i], v)
		}
	}
}

func TestMaxPool1DIdentityPool(t *testing.T) {
	// pool=1 stride=1 must be the identity, as used by the NT3 baseline.
	r := rng.New(7)
	x := randTensor(r, 2, 9, 3)
	out := New(2, Conv1DOutLen(9, 1, 1), 3)
	if !SameShape(out, x) {
		t.Fatalf("identity pool changed shape: %v", out.Shape)
	}
	MaxPool1DInto(out, make([]int, out.Size()), x, 1, 1)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("identity pool changed values")
		}
	}
}

func TestMaxPoolGradientSumPreserved(t *testing.T) {
	// The pooled gradient mass must be conserved by the scatter.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := randTensor(r, 2, 12, 2)
		out := New(2, Conv1DOutLen(12, 3, 3), 2)
		arg := make([]int, out.Size())
		MaxPool1DInto(out, arg, x, 3, 3)
		dout := New(out.Shape...)
		dout.Randn(r, 1)
		dx := New(x.Shape...)
		MaxPool1DBackwardInto(dx, arg, dout)
		return almostEqual(dx.Sum(), dout.Sum(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotUniformBounds(t *testing.T) {
	r := rng.New(8)
	w := New(100, 50)
	w.GlorotUniform(r, 100, 50)
	limit := math.Sqrt(6.0 / 150.0)
	nonzero := false
	for _, v := range w.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %g outside ±%g", v, limit)
		}
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("Glorot produced all zeros")
	}
}

// BenchmarkMatMulShapes is the kernel loop: the three matmul forms over the
// shapes live training actually issues (batch 16 through Combo-small layers,
// a 1024-row Evaluate chunk, batch 4 through the controller's 32-unit LSTM; A
// carries the ~20 % exact zeros a ReLU leaves), plus two large products that
// guard the loop nest against a cache cliff outside that traffic. Each row is
// m×k×n of the OUTPUT: [m,n] summed over k, run once per kernel path (/avx,
// where the host has it, and /go). AxBT is A×Bᵀ as production forms it: B
// transposed into a buffer, then MatMulInto.
func BenchmarkMatMulShapes(b *testing.B) {
	for _, c := range []struct {
		form    string
		m, k, n int
	}{
		{"AxB", 16, 120, 63}, {"AxB", 16, 63, 31}, {"AxB", 16, 120, 6}, {"AxB", 4, 32, 128},
		{"AxB", 16, 120, 32},   // the shape behind benchmark's tensor.matmul_gflops
		{"AxB", 1024, 120, 63}, // an Evaluate chunk
		{"ATxB", 120, 16, 63}, {"ATxB", 63, 16, 31}, {"ATxB", 32, 4, 128},
		{"AxBT", 16, 63, 120},
		{"AxB", 512, 512, 512}, {"AxB", 16, 1000, 1000}, // cliff guards
	} {
		for _, p := range kernelPaths() {
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", c.form, c.m, c.k, c.n, p.name), func(b *testing.B) {
				setLanes(b, p.lanes)
				r := rng.New(1)
				var x, y *Tensor
				var into func(dst, x, y *Tensor)
				switch c.form {
				case "AxB":
					x, y, into = randTensor(r, c.m, c.k), randTensor(r, c.k, c.n), MatMulInto
				case "ATxB":
					x, y, into = randTensor(r, c.k, c.m), randTensor(r, c.k, c.n), MatMulTransAInto
				case "AxBT":
					x, y = randTensor(r, c.m, c.k), randTensor(r, c.n, c.k)
					yt := New(c.k, c.n)
					into = func(dst, x, y *Tensor) {
						TransposeInto(yt, y)
						MatMulInto(dst, x, yt)
					}
				}
				for i := range x.Data {
					if r.Intn(5) == 0 {
						x.Data[i] = 0
					}
				}
				dst := New(c.m, c.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					into(dst, x, y)
				}
				b.ReportMetric(2*float64(c.m*c.k*c.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkConv1D(b *testing.B) {
	r := rng.New(1)
	x := randTensor(r, 8, 1024, 1)
	w := randTensor(r, 20, 1, 16)
	bias := randTensor(r, 16)
	out := New(8, Conv1DOutLen(1024, 20, 1), 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv1DInto(out, x, w, bias, 1)
	}
}
