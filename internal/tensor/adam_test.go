package tensor

import (
	"fmt"
	"math"
	"testing"

	"nasgo/internal/rng"
)

// naiveAdam is the update optim.Adam applied element by element before
// AdamUpdate existed.
func naiveAdam(p, g, m, v []float64, lr, beta1, beta2, eps, bc1, bc2 float64) {
	for i := range g {
		m[i] = float64(beta1*m[i]) + float64((1-beta1)*g[i])
		v[i] = float64(beta2*v[i]) + float64((1-beta2)*g[i]*g[i])
		p[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
	}
}

// TestAdamDifferential holds AdamUpdate's values and moments to the naive
// loop bit for bit (NaN as NaN), on each kernel path, at every length from 0
// to 9, at 13 and at 4,097, so the vector body and the tail both run. The
// gradients include −0, subnormals, ±Inf and NaN, some beside NaN moments;
// the moments are zero at T = 1, as at a first Step, where a
// subnormal gradient leaves a subnormal first moment, and random at T = 10⁴,
// some second moments zero.
func TestAdamDifferential(t *testing.T) {
	onPaths(t, func(t *testing.T) {
		r := rng.New(104)
		for _, T := range []float64{1, 1e4} {
			bc1, bc2 := 1-math.Pow(0.9, T), 1-math.Pow(0.999, T)
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 4097} {
				p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range g {
					p[i], g[i] = r.Norm(), r.Norm()
					if T > 1 { // at T = 1 the moments are zero, as at a first Step
						m[i], v[i] = 0.1*r.Norm(), 0.01*math.Abs(r.Norm())
					}
					switch r.Intn(8) {
					case 0:
						g[i] = math.Copysign(0, -1)
					case 1:
						g[i] = float64(1+r.Intn(1<<20)) * math.SmallestNonzeroFloat64 * float64(1-2*r.Intn(2))
					case 2:
						g[i] = math.Inf(1 - 2*r.Intn(2))
					case 3:
						g[i] = math.NaN()
					case 4:
						v[i] = 0
					case 5: // NaN moments beside a NaN gradient
						g[i] = math.NaN()
						m[i], v[i] = math.Float64frombits(0x7ff8_0000_0000_0a0a), math.Float64frombits(0x7ff8_0000_0000_0b0b)
					}
				}
				wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
				naiveAdam(wp, g, wm, wv, 0.001, 0.9, 0.999, 1e-7, bc1, bc2)
				AdamUpdate(p, g, m, v, 0.001, 0.9, 0.999, 1e-7, bc1, bc2)
				for _, x := range []struct {
					name      string
					got, want []float64
				}{{"p", p, wp}, {"m", m, wm}, {"v", v, wv}} {
					sameProduct(t, fmt.Sprintf("T=%g n=%d %s", T, n, x.name), FromSlice(x.got, n), FromSlice(x.want, n))
				}
			}
		}
	})
	mustPanic(t, "mismatched lengths", func() { AdamUpdate(make([]float64, 4), make([]float64, 5), nil, nil, 1, 1, 1, 1, 1, 1) })
}

// BenchmarkAdam is one AdamUpdate over a 120×63 Dense layer's weights, on
// each kernel path.
func BenchmarkAdam(b *testing.B) {
	for _, path := range kernelPaths() {
		b.Run(path.name, func(b *testing.B) {
			setLanes(b, path.lanes)
			r := rng.New(1)
			const n = 120 * 63
			p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
			for i := range g {
				p[i], g[i] = r.Norm(), r.Norm()
			}
			for i := 0; i < b.N; i++ {
				AdamUpdate(p, g, m, v, 0.001, 0.9, 0.999, 1e-7, 0.1, 0.001)
			}
		})
	}
}
