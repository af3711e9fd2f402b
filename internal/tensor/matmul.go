package tensor

import "fmt"

// blockK is the k-dimension blocking factor. matmulRows streams blockK rows
// of B past every output row before moving on, so for wide operands that
// block (blockK × n) is what stays in cache, not all of B.
const blockK = 128

// lanes selects addRows4 for matmulRows' four-row pass: true where the CPU
// has AVX. Tests clear it to hold the Go loop to the same references.
var lanes = hasAVX()

// MatMulInto computes dst = A×B for rank-2 tensors of shapes [m,k] and
// [k,n] into a caller-provided [m,n] destination. dst must not alias either
// operand.
func MatMulInto(dst, a, b *Tensor) {
	checkProduct("MatMulInto", dst, a, b, false)
	matmulRows(dst, a.Data, a.Shape[1], 1, b)
}

// checkProduct panics unless a, read transposed if transA, and b are rank-2
// operands of a product whose result dst is shaped for and aliases neither.
func checkProduct(op string, dst, a, b *Tensor, transA bool) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v, %v", op, a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	if k != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v, %v", op, a.Shape, b.Shape))
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: %s destination %v, want [%d %d]", op, dst.Shape, m, b.Shape[1]))
	}
	assertNoAlias(op, dst, a, b)
}

// matmulRows computes out = A×B for B of shape [k,n] and an A whose element
// (i, x) is ad[i*ar+x*ax]: strides (k, 1) read a row-major [m,k] operand,
// (1, m) read a [k,m] operand down its columns, which is Aᵀ×B without the
// transpose. It is the one matrix-product kernel: MatMulInto, and so A×Bᵀ
// after a TransposeInto, and MatMulTransAInto call it.
//
// Each output row is a sum of k scaled rows of B. Four of them are folded in
// per pass, so a partial sum stays in a register across four multiply-adds
// and the row is loaded and stored once per four where a plain saxpy
// (out[j] += a·b[j]) pays a load and a store for every one. All five streams
// are contiguous, whatever the strides of A. Every element is still summed
// over k in index order from +0, so it is bit-identical to the naive triple
// loop.
//
// There is no zero test on A. Starting from +0 no partial sum is ever −0, so
// adding 0·b changes no bit for a finite b; for a non-finite b it yields the
// IEEE NaN. Sparse structure is the caller's to exploit (nn.LSTM's one-hot).
//
// On amd64 with AVX the four-row pass over a row of n ≥ 4 runs as addRows4,
// four j per vector multiply and add; shorter rows stay in Go, where the
// call would cost more than the lanes save. Each lane performs the Go loop's
// two rounded operations in the Go loop's order, so the bits are the same;
// the Go loop stays the reference, and the one that runs everywhere else.
//
// The kernel zeroes out first, so out may hold anything on entry.
func matmulRows(out *Tensor, ad []float64, ar, ax int, b *Tensor) {
	m, k, n := out.Shape[0], b.Shape[0], b.Shape[1]
	od, bd := out.Data, b.Data
	vector := lanes && n >= 4
	clear(od[:m*n])
	for k0 := 0; k0 < k; k0 += blockK {
		k1 := min(k0+blockK, k)
		for i := 0; i < m; i++ {
			// Reslicing the B rows to len(o) lets the compiler drop the
			// bounds checks in the inner loops.
			o := od[i*n:][:n]
			x := k0
			for ; x+4 <= k1; x += 4 {
				ai := i*ar + x*ax
				a0, a1, a2, a3 := ad[ai], ad[ai+ax], ad[ai+2*ax], ad[ai+3*ax]
				if vector {
					addRows4(o, bd[x*n:][:4*n], a0, a1, a2, a3)
					continue
				}
				b0 := bd[x*n:][:len(o)]
				b1 := bd[(x+1)*n:][:len(o)]
				b2 := bd[(x+2)*n:][:len(o)]
				b3 := bd[(x+3)*n:][:len(o)]
				for j, ov := range o {
					o[j] = (((ov + float64(a0*b0[j])) + float64(a1*b1[j])) + float64(a2*b2[j])) + float64(a3*b3[j])
				}
			}
			for ; x < k1; x++ { // k%4 remainder
				av := ad[i*ar+x*ax]
				brow := bd[x*n:][:len(o)]
				for j, ov := range o {
					o[j] = ov + float64(av*brow[j])
				}
			}
		}
	}
}

// MatMulTransA returns Aᵀ×B without materializing the transpose; A is [k,m],
// B is [k,n], and the result is [m,n]. It is the one allocating kernel
// wrapper left: production calls MatMulTransAInto, and this form stays only
// because benchmark/layers.go measures it (tensor.matmul_transa_*).
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires rank-2 operands, got %v, %v", a.Shape, b.Shape))
	}
	out := New(a.Shape[1], b.Shape[1])
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = Aᵀ×B without materializing the transpose;
// A is [k,m], B is [k,n], dst is [m,n] and must not alias either operand.
// This is the weight-gradient path of a Dense layer (dW = Xᵀ×dY).
func MatMulTransAInto(dst, a, b *Tensor) {
	checkProduct("MatMulTransAInto", dst, a, b, true)
	matmulRows(dst, a.Data, 1, a.Shape[1], b)
}

// TransposeInto writes every element of dst = aᵀ for a rank-2 [m,k] a and a
// caller-provided [k,m] dst, which must not alias a. A×Bᵀ (dX = dY×Wᵀ) is B
// transposed into a buffer, then MatMulInto.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: TransposeInto destination %v, want the transpose of %v", dst.Shape, a.Shape))
	}
	assertNoAlias("TransposeInto", dst, a)
	m, k := a.Shape[0], a.Shape[1]
	for i := 0; i < m; i++ {
		for x, v := range a.Data[i*k : (i+1)*k] {
			dst.Data[x*m+i] = v
		}
	}
}
