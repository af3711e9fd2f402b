//go:build !amd64

package tensor

func hasAVX() bool { return false }

func addRows4(o, b []float64, a0, a1, a2, a3 float64) {
	panic("tensor: addRows4 is amd64 only")
}
