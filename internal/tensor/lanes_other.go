//go:build !amd64

package tensor

func hasAVX() bool { return false }

func tile(o, a, b []float64, n, ld, kb, ar, ax int, zero bool) {
	panic("tensor: tile is amd64 only")
}

func adamLanes(p, g, m, v []float64, b1, c1, b2, c2, bc1, bc2, lr, eps float64) {
	panic("tensor: adamLanes is amd64 only")
}
