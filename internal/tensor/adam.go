package tensor

import (
	"fmt"
	"math"
)

// AdamUpdate is Adam's per-element update (optim.Adam.Step calls it once per
// parameter): it moves the moments m and v toward the gradient g and steps
// the values p by lr·m̂/(√v̂ + eps), where bc1 and bc2 are the step's bias
// corrections. All four slices have one length. On amd64 with AVX four
// elements run per vector operation, each rounded as the Go loop rounds it.
func AdamUpdate(p, g, m, v []float64, lr, beta1, beta2, eps, bc1, bc2 float64) {
	n := len(g)
	if len(p) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamUpdate lengths %d, %d, %d, %d", len(p), n, len(m), len(v)))
	}
	done := 0
	if lanes && n >= 4 {
		done = n &^ 3
		adamLanes(p[:done], g[:done], m[:done], v[:done], beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, lr, eps)
	}
	p, m, v = p[done:], m[done:], v[done:]
	for i, g := range g[done:] {
		m[i] = float64(beta1*m[i]) + float64((1-beta1)*g)
		v[i] = float64(beta2*v[i]) + float64((1-beta2)*g*g)
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		p[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}
