package tensor

import (
	"math"
	"testing"
)

// TestElementwiseHelpers covers the small utility surface the nn substrate
// relies on; most of it is otherwise only exercised from other packages,
// which per-package coverage does not count.
func TestElementwiseHelpers(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)

	sum := a.Clone()
	AddInPlace(sum, b)
	for i, want := range []float64{11, 22, 33, 44} {
		if sum.Data[i] != want {
			t.Fatalf("AddInPlace[%d] = %g, want %g", i, sum.Data[i], want)
		}
	}
}

func TestReductionsAndAccessors(t *testing.T) {
	a := FromSlice([]float64{3, -1, 7, 5}, 2, 2)
	if m := a.Mean(); m != 3.5 {
		t.Fatalf("Mean = %g", m)
	}
	if a.Rows() != 2 || a.Cols() != 2 {
		t.Fatalf("Rows/Cols = %d/%d", a.Rows(), a.Cols())
	}
	if s := a.String(); s != "Tensor[2 2]" {
		t.Fatalf("String = %q", s)
	}
	empty := New(0)
	if empty.Mean() != 0 {
		t.Fatal("Mean of empty tensor should be 0")
	}
	mustPanic(t, "Cols of rank-1", func() { New(3).Cols() })
	mustPanic(t, "Rows of rank-0", func() { New().Rows() })
}

func TestFlatten2DView(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 1, 3, 2)
	f := Flatten2D(x)
	if f.Rank() != 2 || f.Shape[0] != 1 || f.Shape[1] != 6 {
		t.Fatalf("Flatten2D shape = %v", f.Shape)
	}
	// Copy-free view: writes through the flat tensor land in the original.
	f.Data[4] = math.Pi
	if x.Data[4] != math.Pi {
		t.Fatal("Flatten2D is not a view")
	}
	mustPanic(t, "Flatten2D of rank-2", func() { Flatten2D(f) })
}
