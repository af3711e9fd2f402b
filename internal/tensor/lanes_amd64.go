package tensor

// hasAVX reports whether the CPU has AVX and the OS saves the YMM registers
// across context switches (CPUID.1:ECX.OSXSAVE and .AVX, then XGETBV).
func hasAVX() bool

// tile is matmulRows' lanes path: it adds one k-block of A×B into n columns
// of one or two output rows (two where len(o) > ld),
//
//	o[r*ld+j] += Σ_{x<kb} a[r*ar+x*ax] · b[x*ld+j]   (j < n)
//
// o and b having the row stride ld ≥ n, starting each sum from +0 instead of
// o where zero is set. Sixteen columns run at a time, four per vector,
// summed over k in registers in the Go loop's order: groups of four
// products, then the remainder, each product rounded before its add and no
// fused multiply-add. The last 1–15 columns load and store through
// VMASKMOVPD masks (tailMasks). n, kb ≥ 1.
//
//go:noescape
func tile(o, a, b []float64, n, ld, kb, ar, ax int, zero bool)

// tailMasks[16-w:][:16] are the VMASKMOVPD masks of tile's w-column tail.
var tailMasks = [32]int64{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}

// adamLanes is AdamUpdate's loop for len(p) a multiple of four, four elements
// per vector operation, with c1 = 1−b1 and c2 = 1−b2. VDIVPD and VSQRTPD are
// exactly rounded like DIVSD and SQRTSD, and no multiply-add is fused, so
// every lane keeps the Go loop's bits.
//
//go:noescape
func adamLanes(p, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64)
