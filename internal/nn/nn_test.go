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

// graphGradCheck runs one Forward and Backward of m on xs with an all-ones
// output gradient and checks every parameter gradient by finite differences;
// before lets a test restore state (a dropout stream) ahead of each Forward.
func graphGradCheck(t *testing.T, name string, m *Model, xs []*tensor.Tensor, before func()) {
	t.Helper()
	before()
	y := m.Forward(xs, true)
	dout := tensor.New(y.Shape...)
	dout.Fill(1)
	m.ZeroGrad()
	m.Backward(dout)
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range m.Params().List() {
		grads[p] = p.Grad.Clone()
	}
	loss := func() float64 {
		before()
		return m.Forward(xs, true).Sum()
	}
	gradCheck(t, name, loss, m.Params().List(), grads)
}

func randInputs(r *rng.Rand, rows int, widths ...int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, len(widths))
	for i, w := range widths {
		xs[i] = tensor.New(rows, w)
		xs[i].Randn(r, 1)
	}
	return xs
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

	graphGradCheck(t, "graph", m, randInputs(r, 2, 3, 5, 5), func() {})
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
	xs := randInputs(r, 2, 3)
	if y := m.Forward(xs, true); y.Shape[1] != 5 {
		t.Fatalf("Add output width %d, want 5 (max of 5,2)", y.Shape[1])
	}
	// Gradients still correct under padding.
	graphGradCheck(t, "add-pad", m, xs, func() {})
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
	graphGradCheck(t, "fanout", m, randInputs(r, 1, 2), func() {})
}

// TestGraphPartialInputGradient checks a Dense over Concat(raw input, Dense,
// raw input, Dense): it forms dX over the two Dense column spans only, and
// no gradient reaches the inputs.
func TestGraphPartialInputGradient(t *testing.T) {
	r := rng.New(12)
	b := NewModelBuilder()
	a, c := b.Input(), b.Input()
	h1 := b.Layer(c, NewDense(r, 4, 2, ActTanh))
	h2 := b.Layer(a, NewDense(r, 3, 3, ActSigmoid))
	cat := b.Concat(a, h1, c, h2)
	head := NewDense(r, 12, 1, ActLinear)
	m := b.Build(b.Layer(cat, head))
	graphGradCheck(t, "partial-dx", m, randInputs(r, 3, 3, 4), func() {})
	if len(head.spans) != 2 || head.spans[0].lo != 3 || head.spans[0].hi != 5 ||
		head.spans[1].lo != 9 || head.spans[1].hi != 12 {
		t.Fatalf("head dX spans %+v, want [3,5) and [9,12)", head.spans)
	}
	if m.grads[a] != nil || m.grads[c] != nil {
		t.Fatal("a model input received a gradient")
	}
}

// TestGraphAddRawBranch checks an Add of a raw input and a narrower Dense:
// the zero-padded sum depends on a parameter only in the Dense's columns, so
// the head forms dX there alone.
func TestGraphAddRawBranch(t *testing.T) {
	r := rng.New(13)
	b := NewModelBuilder()
	in := b.Input()
	sum := b.Add(in, b.Layer(in, NewDense(r, 5, 2, ActReLU)))
	head := NewDense(r, 5, 2, ActTanh)
	m := b.Build(b.Layer(sum, head))
	graphGradCheck(t, "add-raw", m, randInputs(r, 4, 5), func() {})
	if len(head.spans) != 1 || head.spans[0].lo != 0 || head.spans[0].hi != 2 {
		t.Fatalf("head dX spans %+v, want [0,2)", head.spans)
	}
}

// TestGraphDropoutOnInput checks input → Dropout → Dense → Dense: the
// dropout reaches no parameter, so it gets no gradient and the first Dense
// forms no dX. The dropout stream restarts before every Forward so the
// finite differences see one mask.
func TestGraphDropoutOnInput(t *testing.T) {
	r := rng.New(14)
	b := NewModelBuilder()
	drop := NewDropout(r, 0.3)
	dn := b.Layer(b.Input(), drop)
	first := NewDense(r, 6, 3, ActTanh)
	m := b.Build(b.Layer(b.Layer(dn, first), NewDense(r, 3, 1, ActLinear)))
	graphGradCheck(t, "dropout-input", m, randInputs(r, 4, 6), func() { drop.rand = rng.New(15) })
	if m.grads[dn] != nil {
		t.Fatal("the input dropout received a gradient")
	}
	if !first.limited || len(first.spans) != 0 {
		t.Fatalf("first Dense forms dX over %+v, want none", first.spans)
	}
}

// TestGraphBackwardTwiceAccumulates pins the direct write into a zeroed
// gradient: ZeroGrad then two Backward calls must leave, bit for bit, twice
// the gradient of one call — the second call adds where the first wrote.
func TestGraphBackwardTwiceAccumulates(t *testing.T) {
	r := rng.New(16)
	b := NewModelBuilder()
	a, c := b.Input(), b.Input()
	h := b.Layer(a, NewDense(r, 3, 4, ActTanh))
	conv := b.Layer(b.Layer(c, Reshape1D{}), NewConv1D(r, 3, 1, 2, 1, ActReLU))
	cat := b.Concat(h, b.Layer(conv, &Flatten{}), c)
	m := b.Build(b.Layer(cat, NewDense(r, 4+2*4+6, 1, ActLinear)))
	xs := randInputs(r, 3, 3, 6)
	y := m.Forward(xs, true)
	dout := tensor.New(y.Shape...)
	dout.Randn(r, 1)
	m.ZeroGrad()
	m.Backward(dout)
	once := m.Params().FlattenGrads()
	m.ZeroGrad()
	m.Backward(dout)
	m.Backward(dout)
	for i, g := range m.Params().FlattenGrads() {
		if math.Float64bits(g) != math.Float64bits(2*once[i]) {
			t.Fatalf("grad[%d] after two Backwards = %v, want 2×%v", i, g, once[i])
		}
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

// TestLSTMGradients runs a 4-step BPTT and verifies all parameter gradients
// by finite differences of a scalar loss sum(h_t over all steps). The input
// indices hit rows of Wx zero, one and several times within one batch (the
// scatter-add of BackwardStep, and its flush of the touched rows) and across
// steps; row 5 is never active.
func TestLSTMGradients(t *testing.T) {
	r := rng.New(14)
	l := NewLSTM(r, 6, 4)
	batch := 4
	xs := [][]int{{0, 0, 2, 0}, {1, 2, 2, 4}, {3, 3, 3, 3}, {4, 4, 1, 4}}
	runLoss := func() float64 {
		l.ResetCache()
		var h, c *tensor.Tensor
		var s float64
		for _, x := range xs {
			h, c = l.Step(x, h, c)
			s += h.Sum()
		}
		return s
	}
	// Forward + backward.
	l.ResetCache()
	var h, c *tensor.Tensor
	for _, x := range xs {
		h, c = l.Step(x, h, c)
	}
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	ones := tensor.New(batch, 4)
	ones.Fill(1)
	var dh, dc *tensor.Tensor
	for i := len(xs) - 1; i >= 0; i-- {
		g := ones.Clone()
		if dh != nil {
			tensor.AddInPlace(g, dh)
		}
		dh, dc = l.BackwardStep(g, dc)
	}
	if dh != nil || dc != nil {
		t.Fatal("a step from the zero state returned a state gradient")
	}
	grads := map[*Param]*tensor.Tensor{}
	for _, p := range l.Params() {
		grads[p] = p.Grad.Clone()
	}
	for i := 4 * 4 * 5; i < 4*4*6; i++ {
		if g := l.Wx.Grad.Data[i]; math.Float64bits(g) != 0 {
			t.Fatalf("Wx row 5 is never active but its gradient[%d] is %g", i, g)
		}
	}
	gradCheck(t, "lstm", runLoss, l.Params(), grads)
}

// TestLSTMNilStateIsZeroState pins the zero-state skip: a pass from nil h
// and c gives, bit for bit, the h and c of every step, the state gradients
// of every later step and every parameter gradient that a pass from
// explicit zero tensors gives, at two batch sizes on the same cell (its
// workspace resized in between).
func TestLSTMNilStateIsZeroState(t *testing.T) {
	const in, hidden = 5, 3
	xs := [][]int{{4, 0, 4}, {1, 1, 3}, {2, 0, 2}}
	type pass struct {
		hs, cs, dhs, dcs []*tensor.Tensor
		grads            [][]float64
	}
	run := func(l *LSTM, batch int, zero bool) pass {
		var p pass
		var h, c *tensor.Tensor
		if zero {
			h, c = tensor.New(batch, hidden), tensor.New(batch, hidden)
		}
		l.ResetCache()
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
		for _, x := range xs {
			h, c = l.Step(x[:batch], h, c)
			p.hs, p.cs = append(p.hs, h.Clone()), append(p.cs, c.Clone())
		}
		dr := rng.New(3)
		var dh, dc *tensor.Tensor
		for range xs {
			g := tensor.New(batch, hidden)
			g.Randn(dr, 1)
			if dh != nil {
				tensor.AddInPlace(g, dh)
			}
			dh, dc = l.BackwardStep(g, dc)
			if dh != nil {
				p.dhs, p.dcs = append(p.dhs, dh.Clone()), append(p.dcs, dc.Clone())
			}
		}
		for _, prm := range l.Params() {
			p.grads = append(p.grads, append([]float64(nil), prm.Grad.Data...))
		}
		return p
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: nil state %g, zero tensors %g", what, i, a[i], b[i])
			}
		}
	}
	lNil, lZero := NewLSTM(rng.New(21), in, hidden), NewLSTM(rng.New(21), in, hidden)
	for _, batch := range []int{3, 2} {
		a, b := run(lNil, batch, false), run(lZero, batch, true)
		if len(a.dhs) != len(xs)-1 || len(b.dhs) != len(xs) {
			t.Fatalf("batch %d: %d and %d state gradients, want %d and %d", batch, len(a.dhs), len(b.dhs), len(xs)-1, len(xs))
		}
		for s := range xs {
			same("h", a.hs[s].Data, b.hs[s].Data)
			same("c", a.cs[s].Data, b.cs[s].Data)
		}
		for s := range a.dhs {
			same("dhPrev", a.dhs[s].Data, b.dhs[s].Data)
			same("dcPrev", a.dcs[s].Data, b.dcs[s].Data)
		}
		for i := range a.grads {
			same(lNil.Params()[i].Name, a.grads[i], b.grads[i])
		}
	}
}

func TestLSTMDeterminism(t *testing.T) {
	make_ := func() *tensor.Tensor {
		r := rng.New(15)
		l := NewLSTM(r, 2, 3)
		h, _ := l.Step([]int{1}, nil, nil)
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
	l.BackwardStep(g, nil)
}
