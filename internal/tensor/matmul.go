package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the minimum number of multiply-accumulate operations
// below which a product stays single-threaded; spawning goroutines for tiny
// products costs more than it saves.
const parallelThreshold = 1 << 16

// blockK is the k-dimension blocking factor. matmulRows streams blockK rows
// of B past every output row of its band before moving on, so for wide
// operands that block (blockK × n) is what stays in cache, not all of B.
const blockK = 128

// serialRows reports whether a row-banded kernel should stay on the calling
// goroutine. It is the one place that decision is made: kernels check it
// BEFORE constructing the closure they would hand to parallelRows, so the
// steady-state serial path allocates nothing.
func serialRows(m, ops int) bool {
	return ops < parallelThreshold || runtime.GOMAXPROCS(0) <= 1 || m <= 1
}

// parallelRows runs work over [0,m) split into bands across GOMAXPROCS
// goroutines. Callers have already ruled out serialRows.
func parallelRows(m int, work func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), m)
	chunk := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < m; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, min(lo+chunk, m))
	}
	wg.Wait()
}

// MatMulInto computes dst = A×B for rank-2 tensors of shapes [m,k] and
// [k,n] into a caller-provided [m,n] destination. dst must not alias either
// operand. Large products are split across GOMAXPROCS goroutines over row
// bands, the standard shared-memory parallelization for dense GEMM.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto requires rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v × %v", a.Shape, b.Shape))
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto destination %v, want [%d %d]", dst.Shape, m, n))
	}
	assertNoAlias("MatMulInto", dst, a, b)
	if serialRows(m, m*n*k) {
		matmulRows(dst, a.Data, k, 1, b, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { matmulRows(dst, a.Data, k, 1, b, lo, hi) })
}

// matmulRows computes rows [lo,hi) of out = A×B for B of shape [k,n] and an A
// whose element (i, x) is ad[i*ar+x*ax]: strides (k, 1) read a row-major
// [m,k] operand, (1, m) read a [k,m] operand down its columns, which is Aᵀ×B
// without the transpose. It is the one kernel behind MatMulInto and
// MatMulTransAInto.
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
// The kernel zeroes its own band, so out may hold anything on entry.
func matmulRows(out *Tensor, ad []float64, ar, ax int, b *Tensor, lo, hi int) {
	k, n := b.Shape[0], b.Shape[1]
	od, bd := out.Data, b.Data
	clear(od[lo*n : hi*n])
	for k0 := 0; k0 < k; k0 += blockK {
		k1 := min(k0+blockK, k)
		for i := lo; i < hi; i++ {
			// Reslicing the B rows to len(o) lets the compiler drop the
			// bounds checks in the inner loops.
			o := od[i*n:][:n]
			x := k0
			for ; x+4 <= k1; x += 4 {
				ai := i*ar + x*ax
				a0, a1, a2, a3 := ad[ai], ad[ai+ax], ad[ai+2*ax], ad[ai+3*ax]
				b0 := bd[x*n:][:len(o)]
				b1 := bd[(x+1)*n:][:len(o)]
				b2 := bd[(x+2)*n:][:len(o)]
				b3 := bd[(x+3)*n:][:len(o)]
				for j, ov := range o {
					o[j] = (((ov + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
				}
			}
			for ; x < k1; x++ { // k%4 remainder
				av := ad[i*ar+x*ax]
				brow := bd[x*n:][:len(o)]
				for j, ov := range o {
					o[j] = ov + av*brow[j]
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = A×Bᵀ without materializing the transpose;
// A is [m,k], B is [n,k], dst is [m,n] and must not alias either operand.
// This is the hot path of the backward pass of a Dense layer (dX = dY×Wᵀ).
func MatMulTransBInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto requires rank-2 operands, got %v, %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransBInto inner dimension mismatch %v × %vᵀ", a.Shape, b.Shape))
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto destination %v, want [%d %d]", dst.Shape, m, n))
	}
	assertNoAlias("MatMulTransBInto", dst, a, b)
	// The serial path calls the named row kernel directly: building the
	// closure first would heap-allocate it on every call, even when
	// parallelRows never spawns a goroutine.
	if serialRows(m, m*n*k) {
		matmulTransBRows(dst, a, b, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { matmulTransBRows(dst, a, b, lo, hi) })
}

// matmulTransBRows computes rows [lo,hi) of dst = A×Bᵀ, four output columns
// per pass. A single dot product is bound by the latency of its one
// accumulator; four independent accumulators keep four in flight. Each is
// still summed over k in index order, so every element is bit-identical to
// the one-column loop that handles the n%4 remainder.
func matmulTransBRows(dst, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], dst.Shape[1]
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			// Reslicing to len(arow) lets the compiler drop the bounds
			// checks in the inner loop.
			b0 := b.Data[j*k : (j+1)*k][:len(arow)]
			b1 := b.Data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.Data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.Data[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for x, av := range arow {
				s0 += av * b0[x]
				s1 += av * b1[x]
				s2 += av * b2[x]
				s3 += av * b3[x]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k][:len(arow)]
			var s float64
			for x, av := range arow {
				s += av * brow[x]
			}
			orow[j] = s
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
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransAInto requires rank-2 operands, got %v, %v", a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransAInto inner dimension mismatch %vᵀ × %v", a.Shape, b.Shape))
	}
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto destination %v, want [%d %d]", dst.Shape, m, n))
	}
	assertNoAlias("MatMulTransAInto", dst, a, b)
	if serialRows(m, m*n*k) {
		matmulRows(dst, a.Data, 1, m, b, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { matmulRows(dst, a.Data, 1, m, b, lo, hi) })
}
