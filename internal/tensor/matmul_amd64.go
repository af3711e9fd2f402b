package tensor

// hasAVX reports whether the CPU has AVX and the OS saves the YMM registers
// across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then XGETBV).
func hasAVX() bool

// addRows4 is matmulRows' four-row pass for n = len(o) ≥ 4:
//
//	o[j] = (((o[j] + a0·b[j]) + a1·b[n+j]) + a2·b[2n+j]) + a3·b[3n+j]
//
// with b holding the four rows of B back to back. Four j run per VMULPD and
// VADDPD, the rest one at a time; every lane rounds each product and each
// sum as the Go loop does, with no fused multiply-add.
//
//go:noescape
func addRows4(o, b []float64, a0, a1, a2, a3 float64)
