package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
	// A child stream must differ from its parent's continued stream.
	p := New(7)
	child := p.Split()
	if child.Uint64() == p.Uint64() {
		t.Fatal("child stream mirrors parent stream")
	}
}

func TestSplitReproducible(t *testing.T) {
	seq := func() []uint64 {
		r := New(99)
		var out []uint64
		for kid := 0; kid < 4; kid++ {
			k := r.Split()
			for i := 0; i < 8; i++ {
				out = append(out, k.Uint64())
			}
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("split streams not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(123)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean too far from 0: %g", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance too far from 1: %g", variance)
	}
}

func TestUniformMean(t *testing.T) {
	r := New(5)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean too far from 0.5: %g", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%50) + 1
		p := New(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCategoricalBounds(t *testing.T) {
	r := New(11)
	w := []float64{0.1, 0, 3, 0.5}
	counts := make([]int, len(w))
	for i := 0; i < 10000; i++ {
		k := r.Categorical(w)
		if k < 0 || k >= len(w) {
			t.Fatalf("categorical out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category sampled %d times", counts[1])
	}
	if counts[2] < counts[0] || counts[2] < counts[3] {
		t.Fatalf("highest-weight category not dominant: %v", counts)
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{{0, 0}, {-1, 2}, {math.NaN()}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestExpPositive(t *testing.T) {
	r := New(3)
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		v := r.Exp()
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean too far from 1: %g", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}
