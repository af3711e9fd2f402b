package nn

import (
	"math"
	"testing"
	"testing/quick"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

const fdTol = 1e-4

// gradCheck compares accumulated parameter gradients and the input gradient
// against central finite differences of loss().
func gradCheck(t *testing.T, name string, loss func() float64, params []*Param, grads map[*Param]*tensor.Tensor) {
	t.Helper()
	const h = 1e-6
	for _, p := range params {
		g := grads[p]
		for i := range p.Value.Data {
			old := p.Value.Data[i]
			p.Value.Data[i] = old + h
			lp := loss()
			p.Value.Data[i] = old - h
			lm := loss()
			p.Value.Data[i] = old
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-g.Data[i]) > fdTol*(1+math.Abs(fd)) {
				t.Fatalf("%s: %s grad[%d] = %g, finite diff %g", name, p.Name, i, g.Data[i], fd)
			}
		}
	}
}

func TestDenseForwardShape(t *testing.T) {
	r := rng.New(1)
	d := NewDense(r, 5, 3, ActReLU)
	x := tensor.New(4, 5)
	x.Randn(r, 1)
	y := d.Forward(x, true, nil)
	if y.Shape[0] != 4 || y.Shape[1] != 3 {
		t.Fatalf("Dense output shape %v", y.Shape)
	}
	for _, v := range y.Data {
		if v < 0 {
			t.Fatal("relu output negative")
		}
	}
}

func TestDenseGradients(t *testing.T) {
	for _, act := range []string{ActLinear, ActReLU, ActTanh, ActSigmoid} {
		r := rng.New(7)
		d := NewDense(r, 4, 3, act)
		x := tensor.New(2, 4)
		x.Randn(r, 1)
		out := d.Forward(x, true, nil)
		dout := tensor.New(out.Shape...)
		dout.Fill(1)
		d.W.ZeroGrad()
		d.B.ZeroGrad()
		dx := d.Backward(dout, nil)

		loss := func() float64 { return d.Forward(x, true, nil).Sum() }
		gradCheck(t, "Dense("+act+")", loss, []*Param{d.W, d.B},
			map[*Param]*tensor.Tensor{d.W: d.W.Grad.Clone(), d.B: d.B.Grad.Clone()})

		// Input gradient via finite differences too.
		const h = 1e-6
		for i := range x.Data {
			old := x.Data[i]
			x.Data[i] = old + h
			lp := loss()
			x.Data[i] = old - h
			lm := loss()
			x.Data[i] = old
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-dx.Data[i]) > fdTol {
				t.Fatalf("Dense(%s) dx[%d] = %g, fd %g", act, i, dx.Data[i], fd)
			}
		}
	}
}

func TestDenseSharedWeights(t *testing.T) {
	r := rng.New(2)
	d1 := NewDense(r, 3, 2, ActLinear)
	d2 := NewDenseShared(d1.W, d1.B, ActLinear)
	x := tensor.New(2, 3)
	x.Randn(r, 1)
	y1 := d1.Forward(x, true, nil)
	y2 := d2.Forward(x, true, nil)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("shared dense layers disagree on same input")
		}
	}
	// Gradients from both layers accumulate into the same Param.
	d1.W.ZeroGrad()
	dout := tensor.New(y1.Shape...)
	dout.Fill(1)
	d1.Backward(dout, nil)
	after1 := d1.W.Grad.Clone()
	d2.Backward(dout, nil)
	for i := range after1.Data {
		if math.Abs(d1.W.Grad.Data[i]-2*after1.Data[i]) > 1e-12 {
			t.Fatal("shared gradient did not accumulate")
		}
	}
}

func TestActivateGradients(t *testing.T) {
	for _, act := range []string{ActReLU, ActTanh, ActSigmoid} {
		r := rng.New(3)
		a := &Activate{Kind: act}
		x := tensor.New(3, 4)
		x.Randn(r, 1)
		a.Forward(x, true, nil)
		dout := tensor.New(3, 4)
		dout.Fill(1)
		dx := a.Backward(dout, nil)
		const h = 1e-6
		for i := range x.Data {
			old := x.Data[i]
			x.Data[i] = old + h
			lp := a.Forward(x, true, nil).Sum()
			x.Data[i] = old - h
			lm := a.Forward(x, true, nil).Sum()
			x.Data[i] = old
			a.Forward(x, true, nil) // restore cache
			fd := (lp - lm) / (2 * h)
			if math.Abs(fd-dx.Data[i]) > fdTol {
				t.Fatalf("Activate(%s) dx[%d] = %g, fd %g", act, i, dx.Data[i], fd)
			}
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	r := rng.New(4)
	d := NewDropout(r, 0.5)
	x := tensor.New(100, 100)
	x.Fill(1)
	// Inference is the identity.
	y := d.Forward(x, false, nil)
	for i := range y.Data {
		if y.Data[i] != 1 {
			t.Fatal("dropout changed values at inference")
		}
	}
	// Training keeps roughly (1-rate) of units, scaled by 1/(1-rate).
	y = d.Forward(x, true, nil)
	kept := 0
	for _, v := range y.Data {
		switch v {
		case 0:
		case 2:
			kept++
		default:
			t.Fatalf("unexpected dropout output %g", v)
		}
	}
	frac := float64(kept) / float64(len(y.Data))
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("dropout kept fraction %g, want ~0.5", frac)
	}
	// Backward masks identically.
	dout := tensor.New(100, 100)
	dout.Fill(1)
	dx := d.Backward(dout, nil)
	for i := range y.Data {
		if (y.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	r := rng.New(5)
	d := NewDropout(r, 0.3)
	x := tensor.New(200, 50)
	x.Fill(1)
	y := d.Forward(x, true, nil)
	if math.Abs(y.Mean()-1) > 0.05 {
		t.Fatalf("inverted dropout mean %g, want ~1", y.Mean())
	}
}

func TestConv1DLayerGradients(t *testing.T) {
	r := rng.New(6)
	c := NewConv1D(r, 3, 2, 4, 1, ActTanh)
	x := tensor.New(2, 8, 2)
	x.Randn(r, 1)
	out := c.Forward(x, true, nil)
	dout := tensor.New(out.Shape...)
	dout.Fill(1)
	c.W.ZeroGrad()
	c.B.ZeroGrad()
	c.Backward(dout, nil)
	loss := func() float64 { return c.Forward(x, true, nil).Sum() }
	gradCheck(t, "Conv1D", loss, []*Param{c.W, c.B},
		map[*Param]*tensor.Tensor{c.W: c.W.Grad.Clone(), c.B: c.B.Grad.Clone()})
}

func TestMaxPoolFlattenRoundtrip(t *testing.T) {
	r := rng.New(7)
	x := tensor.New(3, 12, 2)
	x.Randn(r, 1)
	p := NewMaxPool1D(3, 0)
	f := &Flatten{}
	y := f.Forward(p.Forward(x, true, nil), true, nil)
	if y.Shape[0] != 3 || y.Shape[1] != 4*2 {
		t.Fatalf("pool+flatten shape %v", y.Shape)
	}
	dout := tensor.New(y.Shape...)
	dout.Fill(1)
	dx := p.Backward(f.Backward(dout, nil), nil)
	if !tensor.SameShape(dx, x) {
		t.Fatalf("backward shape %v, want %v", dx.Shape, x.Shape)
	}
}

func TestReshape1D(t *testing.T) {
	x := tensor.New(2, 5)
	y := Reshape1D{}.Forward(x, true, nil)
	if y.Shape[0] != 2 || y.Shape[1] != 5 || y.Shape[2] != 1 {
		t.Fatalf("Reshape1D shape %v", y.Shape)
	}
	back := Reshape1D{}.Backward(y, nil)
	if back.Shape[0] != 2 || back.Shape[1] != 5 {
		t.Fatalf("Reshape1D backward shape %v", back.Shape)
	}
}

// TestGraphMultiInputGradients builds a small Combo-shaped DAG (three
// inputs, a shared drug submodel, concat, dense head) and checks all
// parameter gradients by finite differences.
func TestGraphMultiInputGradients(t *testing.T) {
	r := rng.New(8)
	b := NewModelBuilder()
	inCell := b.Input()
	inD1 := b.Input()
	inD2 := b.Input()
	cellH := b.Layer(inCell, NewDense(r, 3, 4, ActTanh))
	drugDense := NewDense(r, 5, 4, ActTanh)
	d1H := b.Layer(inD1, drugDense)
	d2H := b.Layer(inD2, NewDenseShared(drugDense.W, drugDense.B, ActTanh)) // mirror
	cat := b.Concat(cellH, d1H, d2H)
	out := b.Layer(cat, NewDense(r, 12, 1, ActLinear))
	m := b.Build(out)

	if m.NumInputs() != 3 {
		t.Fatalf("NumInputs = %d", m.NumInputs())
	}
	// Mirror weights are counted once: cell(3*4+4) + drug(5*4+4) + head(12+1).
	want := (3*4 + 4) + (5*4 + 4) + (12 + 1)
	if m.Params().Count() != want {
		t.Fatalf("ParamCount = %d, want %d", m.Params().Count(), want)
	}

	xs := []*tensor.Tensor{tensor.New(2, 3), tensor.New(2, 5), tensor.New(2, 5)}
	for _, x := range xs {
		x.Randn(r, 1)
	}
	y := m.Forward(xs, true)
	dout := tensor.New(y.Shape...)
	dout.Fill(1)
	m.ZeroGrad()
	m.Backward(dout)

	loss := func() float64 { return m.Forward(xs, true).Sum() }
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range m.Params().List() {
		grads[p] = p.Grad.Clone()
	}
	gradCheck(t, "graph", loss, m.Params().List(), grads)
}

// TestGraphAddPadding checks the zero-padding Add used for heterogeneous
// skip connections.
func TestGraphAddPadding(t *testing.T) {
	r := rng.New(9)
	b := NewModelBuilder()
	in := b.Input()
	wide := b.Layer(in, NewDense(r, 3, 5, ActLinear))
	narrow := b.Layer(in, NewDense(r, 3, 2, ActLinear))
	sum := b.Add(wide, narrow)
	m := b.Build(sum)
	x := tensor.New(2, 3)
	x.Randn(r, 1)
	y := m.Forward([]*tensor.Tensor{x}, true)
	if y.Shape[1] != 5 {
		t.Fatalf("Add output width %d, want 5 (max of 5,2)", y.Shape[1])
	}
	// Gradients still correct under padding.
	m.ZeroGrad()
	dout := tensor.New(y.Shape...)
	dout.Fill(1)
	m.Backward(dout)
	loss := func() float64 { return m.Forward([]*tensor.Tensor{x}, true).Sum() }
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range m.Params().List() {
		grads[p] = p.Grad.Clone()
	}
	gradCheck(t, "add-pad", loss, m.Params().List(), grads)
}

func TestGraphFanOutAccumulates(t *testing.T) {
	// One node feeding two consumers must receive the sum of both grads.
	r := rng.New(10)
	b := NewModelBuilder()
	in := b.Input()
	h := b.Layer(in, NewDense(r, 2, 3, ActLinear))
	left := b.Layer(h, NewDense(r, 3, 1, ActLinear))
	right := b.Layer(h, NewDense(r, 3, 1, ActLinear))
	out := b.Add(left, right)
	m := b.Build(out)
	x := tensor.New(1, 2)
	x.Randn(r, 1)
	m.Forward([]*tensor.Tensor{x}, true)
	m.ZeroGrad()
	dout := tensor.New(1, 1)
	dout.Fill(1)
	m.Backward(dout)
	loss := func() float64 { return m.Forward([]*tensor.Tensor{x}, true).Sum() }
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range m.Params().List() {
		grads[p] = p.Grad.Clone()
	}
	gradCheck(t, "fanout", loss, m.Params().List(), grads)
}

func TestGraphInputGradients(t *testing.T) {
	r := rng.New(11)
	b := NewModelBuilder()
	in := b.Input()
	out := b.Layer(in, NewDense(r, 3, 2, ActTanh))
	m := b.Build(out)
	x := tensor.New(2, 3)
	x.Randn(r, 1)
	m.Forward([]*tensor.Tensor{x}, true)
	dout := tensor.New(2, 2)
	dout.Fill(1)
	gs := m.Backward(dout)
	if len(gs) != 1 || !tensor.SameShape(gs[0], x) {
		t.Fatal("input gradient shape mismatch")
	}
}

func TestParamSetDedup(t *testing.T) {
	p1 := NewParam("a", 2, 2)
	p2 := NewParam("b", 3)
	s := NewParamSet()
	s.Add(p1, p2, p1, nil)
	if len(s.List()) != 2 {
		t.Fatalf("dedup failed: %d params", len(s.List()))
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
}

func TestParamSetFlattenRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p1 := NewParam("a", 3, 2)
		p1.Value.Randn(r, 1)
		p2 := NewParam("b", 4)
		p2.Value.Randn(r, 1)
		s := NewParamSet()
		s.Add(p1, p2)
		v := s.FlattenValues()
		s2 := NewParamSet()
		q1, q2 := NewParam("a", 3, 2), NewParam("b", 4)
		s2.Add(q1, q2)
		s2.SetValues(v)
		for i := range p1.Value.Data {
			if q1.Value.Data[i] != p1.Value.Data[i] {
				return false
			}
		}
		for i := range p2.Value.Data {
			if q2.Value.Data[i] != p2.Value.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMSELoss(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 2, 1)
	target := tensor.FromSlice([]float64{0, 0}, 2, 1)
	loss, grad := MSELossArena(nil, pred, target)
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("MSE = %g, want 2.5", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-12 || math.Abs(grad.Data[1]-2) > 1e-12 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestSoftmaxCrossEntropyGrad(t *testing.T) {
	r := rng.New(13)
	logits := tensor.New(3, 4)
	logits.Randn(r, 1)
	labels := []int{0, 2, 3}
	_, grad := SoftmaxCrossEntropyArena(nil, logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		old := logits.Data[i]
		logits.Data[i] = old + h
		lp, _ := SoftmaxCrossEntropyArena(nil, logits, labels)
		logits.Data[i] = old - h
		lm, _ := SoftmaxCrossEntropyArena(nil, logits, labels)
		logits.Data[i] = old
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad.Data[i]) > fdTol {
			t.Fatalf("CE grad[%d] = %g, fd %g", i, grad.Data[i], fd)
		}
	}
}

func TestR2(t *testing.T) {
	y := tensor.FromSlice([]float64{1, 2, 3, 4}, 4, 1)
	if R2(y.Clone(), y) != 1 {
		t.Fatal("perfect prediction must give R2=1")
	}
	mean := tensor.New(4, 1)
	mean.Fill(2.5)
	if math.Abs(R2(mean, y)) > 1e-12 {
		t.Fatal("mean prediction must give R2=0")
	}
	bad := tensor.FromSlice([]float64{4, 3, 2, 1}, 4, 1)
	if R2(bad, y) >= 0 {
		t.Fatal("anti-correlated prediction must give negative R2")
	}
}

// TestLSTMGradients runs a 3-step BPTT and verifies all parameter gradients
// by finite differences of a scalar loss sum(h_t over all steps). The input
// indices hit rows of Wx zero, one and several times within one batch (the
// scatter-add of BackwardStep) and across steps; row 5 is never active.
func TestLSTMGradients(t *testing.T) {
	r := rng.New(14)
	l := NewLSTM(r, 6, 4)
	batch := 4
	T := 3
	xs := [][]int{{0, 0, 2, 0}, {1, 2, 2, 4}, {3, 3, 3, 3}}
	ar := tensor.NewArena()
	runLoss := func() float64 {
		l.ResetCache()
		ar.Reset()
		h, c := l.ZeroState(batch, ar)
		var s float64
		for _, x := range xs {
			h, c = l.Step(x, h, c, ar)
			s += h.Sum()
		}
		return s
	}
	// Forward + backward.
	l.ResetCache()
	h, c := l.ZeroState(batch, ar)
	for _, x := range xs {
		h, c = l.Step(x, h, c, ar)
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	ones := tensor.New(batch, 4)
	ones.Fill(1)
	var dh, dc *tensor.Tensor
	for i := T - 1; i >= 0; i-- {
		g := ones.Clone()
		if dh != nil {
			tensor.AddInPlace(g, dh)
		}
		dh, dc = l.BackwardStep(g, dc, ar)
	}
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range l.Params() {
		grads[p] = p.Grad.Clone()
	}
	gradCheck(t, "lstm", runLoss, l.Params(), grads)
}

func TestLSTMDeterminism(t *testing.T) {
	make_ := func() *tensor.Tensor {
		r := rng.New(15)
		l := NewLSTM(r, 2, 3)
		h, c := l.ZeroState(1, nil)
		h, _ = l.Step([]int{1}, h, c, nil)
		return h
	}
	a, b := make_(), make_()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("LSTM not deterministic under same seed")
		}
	}
}

func TestLSTMBackwardWithoutForwardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLSTM(rng.New(1), 2, 2)
	g := tensor.New(1, 2)
	l.BackwardStep(g, nil, nil)
}
