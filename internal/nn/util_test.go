package nn

import (
	"strings"
	"testing"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// TestLayerNamesAndParams pins the Summary-facing layer surface: Name
// strings and the Params each layer exposes to the optimizer.
func TestLayerNamesAndParams(t *testing.T) {
	r := rng.New(41)
	dense := NewDense(r, 3, 4, ActReLU)
	if len(dense.Params()) != 2 {
		t.Fatalf("Dense.Params() = %d, want W and B", len(dense.Params()))
	}
	conv := NewConv1D(r, 3, 1, 2, 1, ActReLU)
	if len(conv.Params()) != 2 {
		t.Fatalf("Conv1D.Params() = %d, want W and B", len(conv.Params()))
	}
	for _, c := range []struct {
		layer Layer
		name  string
	}{
		{Identity{}, "Identity"},
		{&Activate{Kind: ActTanh}, "Activation(tanh)"},
		{NewDropout(r, 0.5), "Dropout(0.5)"},
		{NewMaxPool1D(2, 0), "MaxPooling1D(2)"},
		{&Flatten{}, "Flatten"},
		{Reshape1D{}, "Reshape1D"},
	} {
		if got := c.layer.Name(); got != c.name {
			t.Fatalf("Name() = %q, want %q", got, c.name)
		}
		if p := c.layer.Params(); p != nil {
			t.Fatalf("%s.Params() = %v, want nil", c.name, p)
		}
	}
	if !strings.Contains(dense.Name(), "Dense") || !strings.Contains(conv.Name(), "Conv1D") {
		t.Fatalf("Name() = %q / %q", dense.Name(), conv.Name())
	}
}

func TestIdentityPassthrough(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2}, 1, 2)
	if (Identity{}).Forward(x, true, nil) != x || (Identity{}).Backward(x, nil) != x {
		t.Fatal("Identity must return its argument unchanged")
	}
}

// TestChainPredictAndArenaAccessors covers a two-layer chain, Predict — an
// inference-mode Forward — and the arena attach/detach round-trip.
func TestChainPredictAndArenaAccessors(t *testing.T) {
	r := rng.New(42)
	b := NewModelBuilder()
	in := b.Input()
	out := b.Layer(b.Layer(in, NewDense(r, 3, 5, ActTanh)), NewDense(r, 5, 2, ActLinear))
	m := b.Build(out)
	if m.arena != nil {
		t.Fatal("fresh model should have no arena")
	}
	ar := tensor.NewArena()
	m.SetArena(ar)
	if m.arena != ar {
		t.Fatal("SetArena should attach the arena")
	}
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := m.Predict([]*tensor.Tensor{x}).Clone()
	m.SetArena(nil)
	want := m.Forward([]*tensor.Tensor{x}, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatal("Predict differs from inference-mode Forward")
		}
	}
}

func TestBuilderSingleAndInvalid(t *testing.T) {
	r := rng.New(43)
	b := NewModelBuilder()
	in := b.Input()
	h := b.Layer(in, NewDense(r, 2, 2, ActLinear))
	if b.Concat(h) != h || b.Add(h) != h {
		t.Fatal("single-input Concat/Add must collapse to the input node")
	}
	mustPanicNN(t, "empty Concat", func() { b.Concat() })
	mustPanicNN(t, "empty Add", func() { b.Add() })
	mustPanicNN(t, "invalid output", func() { b.Build(99) })
	mustPanicNN(t, "bad dropout rate", func() { NewDropout(r, 1.5) })
	mustPanicNN(t, "unknown activation", func() { actOf("gelu") })
}

// TestParamSetFlattenRoundTrip covers the wire-format helpers the parameter
// server uses: FlattenGrads/SetGrads mirror FlattenValues/SetValues.
func TestParamSetFlattenRoundTrip(t *testing.T) {
	r := rng.New(44)
	d := NewDense(r, 2, 3, ActLinear)
	ps := NewParamSet()
	ps.Add(d.Params()...)
	for i := range d.W.Grad.Data {
		d.W.Grad.Data[i] = float64(i) + 0.5
	}
	g := ps.FlattenGrads()
	if len(g) != ps.Count() {
		t.Fatalf("FlattenGrads length %d, want %d", len(g), ps.Count())
	}
	ps.ZeroGrad()
	ps.SetGrads(g)
	if got := ps.FlattenGrads(); got[0] != 0.5 || got[5] != 5.5 {
		t.Fatalf("SetGrads round trip = %v", got[:6])
	}
	mustPanicNN(t, "SetGrads length", func() { ps.SetGrads(g[:1]) })
	if s := d.W.String(); !strings.Contains(s, "[2 3]") {
		t.Fatalf("Param.String() = %q", s)
	}
}

func mustPanicNN(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}
