package nn

import (
	"fmt"
	"math"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// LSTM is a single long short-term memory cell with manual backpropagation
// through time. The paper's policy and value networks are single-layer
// 32-unit LSTMs (§5); this type provides the recurrent core, with the
// per-decision output heads living in the rl package.
//
// Gate layout in the fused weight matrices is [input | forget | cell |
// output], each Hidden wide. Forward steps push caches onto an internal
// stack; BackwardStep pops them in reverse, so a full BPTT pass is
// Step×T followed by BackwardStep×T. ResetCache drops any pending caches.
//
// A nil state is the zero state: a pass starts from nil h and c, and no step
// multiplies it. The cell owns every tensor a step makes, one slot per
// stack depth, kept across passes and resized to the batch, so a warm pass
// allocates nothing. What Step returns lives in its slot until a later Step
// refills that slot (after ResetCache, or after BackwardStep popped it);
// what BackwardStep returns, until the next BackwardStep at the same depth.
type LSTM struct {
	Wx, Wh, B  *Param // Wx:[in,4H] Wh:[H,4H] B:[4H]
	In, Hidden int

	steps []lstmStep // steps[:depth] are the cached forward steps
	depth int
	// One step's temporaries: the hPrev×Wh product, the gate gradient and
	// Wh's transpose, and the parameter-shaped gradient terms. dwx stays all
	// +0 between calls: BackwardStep clears the rows it wrote.
	zh, dz, whT  *tensor.Tensor
	dwx, dwh, db *tensor.Tensor
}

type lstmStep struct {
	x              []int          // the step's active input index per batch row
	hPrev, cPrev   *tensor.Tensor // nil: the zero state
	gates, tanhC   *tensor.Tensor // gates: activated [i|f|g|o], [batch,4H]
	h, c           *tensor.Tensor
	dhPrev, dcPrev *tensor.Tensor
}

// NewLSTM creates an LSTM cell with Glorot-uniform input weights,
// Glorot-uniform recurrent weights, and the forget-gate bias set to 1 (the
// standard stabilization).
func NewLSTM(r *rng.Rand, in, hidden int) *LSTM {
	wx := NewParam(fmt.Sprintf("lstm_wx_%dx%d", in, 4*hidden), in, 4*hidden)
	wx.Value.GlorotUniform(r, in, 4*hidden)
	wh := NewParam(fmt.Sprintf("lstm_wh_%dx%d", hidden, 4*hidden), hidden, 4*hidden)
	wh.Value.GlorotUniform(r, hidden, 4*hidden)
	b := NewParam(fmt.Sprintf("lstm_b_%d", 4*hidden), 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		b.Value.Data[j] = 1 // forget gate
	}
	return &LSTM{Wx: wx, Wh: wh, B: b, In: in, Hidden: hidden,
		dwx: tensor.New(in, 4*hidden), dwh: tensor.New(hidden, 4*hidden), db: tensor.New(4 * hidden)}
}

// Params returns the cell's trainable parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// ResetCache clears pending BPTT caches.
func (l *LSTM) ResetCache() { l.depth = 0 }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// fit returns t as a [rows, cols] tensor, reusing its storage when it is
// large enough. The contents are stale: every caller writes each element.
func fit(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	t.Data = t.Data[:rows*cols]
	t.Shape[0], t.Shape[1] = rows, cols
	return t
}

// Step advances the cell one timestep. The input is one-hot: x[r] is the
// index of batch row r's single active unit, in [0, In), so x×Wx is row
// Wx[x[r]] and no [batch, In] matrix is ever built or multiplied. hPrev/cPrev
// are [batch, hidden], or nil for the zero state. It returns the new h and c
// and records the caches needed by BackwardStep, x included: the caller must
// leave x untouched until the matching BackwardStep (or ResetCache).
func (l *LSTM) Step(x []int, hPrev, cPrev *tensor.Tensor) (h, c *tensor.Tensor) {
	batch := len(x)
	H := l.Hidden
	if l.depth == len(l.steps) {
		l.steps = append(l.steps, lstmStep{})
	}
	st := &l.steps[l.depth]
	l.depth++
	st.x, st.hPrev, st.cPrev = x, hPrev, cPrev
	st.gates = fit(st.gates, batch, 4*H)
	st.tanhC = fit(st.tanhC, batch, H)
	st.h = fit(st.h, batch, H)
	st.c = fit(st.c, batch, H)

	// z = (x×Wx + b) + hPrev×Wh. The one-hot product is gathered as +0 + Wx
	// row (Go does not fold 0 + v: +0 + −0 is +0), which is bit for bit what
	// the dense product summed; each product still completes before the
	// adds, the order the separate passes had. The zero state's product is
	// +0 everywhere and z is never −0, so it is not formed.
	z := st.gates
	for r, ix := range x {
		if ix < 0 || ix >= l.In {
			panic(fmt.Sprintf("nn: LSTM input index %d, want [0,%d)", ix, l.In))
		}
		zr := z.Data[r*4*H : (r+1)*4*H]
		wr := l.Wx.Value.Data[ix*4*H : (ix+1)*4*H]
		for j, bv := range l.B.Value.Data {
			zr[j] = (0 + wr[j]) + bv
		}
	}
	if hPrev != nil {
		l.zh = fit(l.zh, batch, 4*H)
		tensor.MatMulInto(l.zh, hPrev, l.Wh.Value)
		tensor.AddInPlace(z, l.zh)
	}

	// The gate activations overwrite their pre-activations in z, which
	// becomes the step's gate cache. The zero cell state still enters as
	// f × +0, which keeps the sign of a zero c. Here and in BackwardStep a
	// float64 conversion rounds a product before its add, so no target
	// fuses the two into one multiply-add (DESIGN §6).
	c, h, tanhC := st.c, st.h, st.tanhC
	for r := 0; r < batch; r++ {
		zr := z.Data[r*4*H : (r+1)*4*H]
		for j := 0; j < H; j++ {
			iv := sigmoid(zr[j])
			fv := sigmoid(zr[H+j])
			gv := math.Tanh(zr[2*H+j])
			ov := sigmoid(zr[3*H+j])
			cp := 0.0
			if cPrev != nil {
				cp = cPrev.Data[r*H+j]
			}
			cv := float64(fv*cp) + float64(iv*gv)
			tc := math.Tanh(cv)
			zr[j], zr[H+j], zr[2*H+j], zr[3*H+j] = iv, fv, gv, ov
			c.Data[r*H+j] = cv
			tanhC.Data[r*H+j] = tc
			h.Data[r*H+j] = ov * tc
		}
	}
	return h, c
}

// BackwardStep pops the most recent cached step and backpropagates the
// gradients dh (w.r.t. the step's h output) and dc (w.r.t. its c output;
// nil means zero). It accumulates parameter gradients and returns the
// gradients with respect to hPrev and cPrev, each nil when the step started
// from the zero state: nothing upstream reads them, and the zero state adds
// nothing to Wh's gradient. There is no gradient with respect to x: the
// input is an index.
func (l *LSTM) BackwardStep(dh, dc *tensor.Tensor) (dhPrev, dcPrev *tensor.Tensor) {
	if l.depth == 0 {
		panic("nn: LSTM BackwardStep with no cached forward step")
	}
	l.depth--
	st := &l.steps[l.depth]

	batch := dh.Shape[0]
	H := l.Hidden
	l.dz = fit(l.dz, batch, 4*H)
	dz := l.dz
	if st.cPrev != nil {
		st.dcPrev = fit(st.dcPrev, batch, H)
		dcPrev = st.dcPrev
	}
	for r := 0; r < batch; r++ {
		gr := st.gates.Data[r*4*H : (r+1)*4*H]
		zr := dz.Data[r*4*H : (r+1)*4*H]
		for j := 0; j < H; j++ {
			k := r*H + j
			iv, fv, gv, ov := gr[j], gr[H+j], gr[2*H+j], gr[3*H+j]
			tc := st.tanhC.Data[k]
			dhv := dh.Data[k]
			dcv := float64(dhv * ov * (1 - float64(tc*tc)))
			if dc != nil {
				dcv += dc.Data[k]
			}
			cp := 0.0
			if st.cPrev != nil {
				cp = st.cPrev.Data[k]
			}
			dov := dhv * tc
			dfv := dcv * cp
			div := dcv * gv
			dgv := dcv * iv
			if dcPrev != nil {
				dcPrev.Data[k] = dcv * fv
			}
			zr[j] = div * iv * (1 - iv)
			zr[H+j] = dfv * fv * (1 - fv)
			zr[2*H+j] = dgv * (1 - float64(gv*gv))
			zr[3*H+j] = dov * ov * (1 - ov)
		}
	}
	// Each step's product completes in a temporary before it is added to
	// Grad, so the accumulation order over steps is the historical one.
	// dWx = xᵀ×dz for a one-hot x: row r of dz lands on row x[r] of dwx, in
	// batch order, the order the dense product summed a repeated index in.
	// Only those rows reach Wx's gradient, and each is cleared behind it;
	// a repeated index's second flush adds +0, which is the identity on a
	// gradient that is a sum from +0. The other rows would add +0 too.
	l.Wx.zeroed, l.B.zeroed, l.Wh.zeroed = false, false, false
	for r, ix := range st.x {
		wr := l.dwx.Data[ix*4*H : (ix+1)*4*H]
		for j, g := range dz.Data[r*4*H : (r+1)*4*H] {
			wr[j] += g
		}
	}
	for _, ix := range st.x {
		wr := l.dwx.Data[ix*4*H : (ix+1)*4*H]
		gr := l.Wx.Grad.Data[ix*4*H : (ix+1)*4*H]
		for j, g := range wr {
			gr[j] += g
		}
		clear(wr)
	}
	tensor.ColSumsInto(l.db, dz)
	tensor.AddInPlace(l.B.Grad, l.db)
	if st.hPrev != nil {
		tensor.MatMulTransAInto(l.dwh, st.hPrev, dz)
		tensor.AddInPlace(l.Wh.Grad, l.dwh)
		st.dhPrev = fit(st.dhPrev, batch, H)
		dhPrev = st.dhPrev
		l.whT = fit(l.whT, 4*H, H)
		tensor.TransposeInto(l.whT, l.Wh.Value)
		tensor.MatMulInto(dhPrev, dz, l.whT)
	}
	return dhPrev, dcPrev
}
