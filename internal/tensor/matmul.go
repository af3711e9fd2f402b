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

// blockK is the k-dimension blocking factor. Row-major A×B walks B row by
// row; blocking over k keeps the working set of B rows hot in cache.
const blockK = 128

// serialRows reports whether a row-banded kernel should stay on the calling
// goroutine. Kernels check it BEFORE constructing the closure they would hand
// to parallelRows, so the steady-state serial path allocates nothing.
func serialRows(m, ops int) bool {
	return ops < parallelThreshold || runtime.GOMAXPROCS(0) <= 1 || m <= 1
}

// parallelRows runs work over [0,m) split into bands across GOMAXPROCS
// goroutines when the op count justifies it.
func parallelRows(m, ops int, work func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if ops < parallelThreshold || workers <= 1 || m <= 1 {
		work(0, m)
		return
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			work(lo, hi)
		}(lo, hi)
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
	dst.Zero()
	if serialRows(m, m*n*k) {
		matmulRows(dst, a, b, 0, m)
		return
	}
	parallelRows(m, m*n*k, func(lo, hi int) { matmulRows(dst, a, b, lo, hi) })
}

// matmulRows accumulates rows [lo,hi) of out += a×b using an ikj loop order
// with k-blocking: the inner j loop is a saxpy over contiguous memory, which
// the compiler can keep in registers. Callers must hand it a zeroed band.
func matmulRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for k0 := 0; k0 < k; k0 += blockK {
		kMax := k0 + blockK
		if kMax > k {
			kMax = k
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for kk := k0; kk < kMax; kk++ {
				aik := arow[kk]
				if aik == 0 {
					continue
				}
				brow := b.Data[kk*n : (kk+1)*n]
				for j, bv := range brow {
					orow[j] += aik * bv
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
	parallelRows(m, m*n*k, func(lo, hi int) { matmulTransBRows(dst, a, b, lo, hi) })
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
	dst.Zero()
	if serialRows(m, m*n*k) {
		matmulTransARows(dst, a, b, 0, m)
		return
	}
	parallelRows(m, m*n*k, func(lo, hi int) { matmulTransARows(dst, a, b, lo, hi) })
}

// matmulTransARows accumulates output rows [lo,hi) of dst += Aᵀ×B over the
// shared k dimension. Callers hand it a zeroed band.
func matmulTransARows(dst, a, b *Tensor, lo, hi int) {
	k, m, n := a.Shape[0], a.Shape[1], dst.Shape[1]
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			orow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}
