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
// Every tensor a step makes comes from the caller's arena (nil means the
// heap), and the cache stack points into it: the arena may be Reset only
// between a ResetCache and the next Step.
type LSTM struct {
	Wx, Wh, B  *Param // Wx:[in,4H] Wh:[H,4H] B:[4H]
	In, Hidden int

	steps []lstmStep
	// Per-step parameter-gradient temporaries. They are parameter-shaped,
	// whatever the batch, so the cell owns them rather than drawing three
	// fresh arena tensors every BackwardStep.
	dwx, dwh, db *tensor.Tensor
}

type lstmStep struct {
	x            []int // the step's active input index per batch row
	hPrev, cPrev *tensor.Tensor
	gates, tanhC *tensor.Tensor // gates: activated [i|f|g|o], [batch,4H]
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

// ZeroState returns zero h and c states for the given batch size.
func (l *LSTM) ZeroState(batch int, ar *tensor.Arena) (h, c *tensor.Tensor) {
	return ar.Get(batch, l.Hidden), ar.Get(batch, l.Hidden)
}

// ResetCache clears pending BPTT caches.
func (l *LSTM) ResetCache() { l.steps = l.steps[:0] }

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

// Step advances the cell one timestep. The input is one-hot: x[r] is the
// index of batch row r's single active unit, in [0, In), so x×Wx is row
// Wx[x[r]] and no [batch, In] matrix is ever built or multiplied. hPrev/cPrev
// are [batch, hidden]. It returns the new h and c and records the caches
// needed by BackwardStep, x included: the caller must leave x untouched until
// the matching BackwardStep (or ResetCache).
func (l *LSTM) Step(x []int, hPrev, cPrev *tensor.Tensor, ar *tensor.Arena) (h, c *tensor.Tensor) {
	batch := len(x)
	H := l.Hidden
	// z = (x×Wx + b) + hPrev×Wh. The one-hot product is gathered as +0 + Wx
	// row — z comes zeroed from the arena — which is bit for bit what the
	// dense product summed (a −0 weight reads +0 either way); each product
	// still completes before the adds, the order the separate passes had.
	z := ar.Get(batch, 4*H)
	for r, ix := range x {
		if ix < 0 || ix >= l.In {
			panic(fmt.Sprintf("nn: LSTM input index %d, want [0,%d)", ix, l.In))
		}
		zr := z.Data[r*4*H : (r+1)*4*H]
		wr := l.Wx.Value.Data[ix*4*H : (ix+1)*4*H]
		for j, bv := range l.B.Value.Data {
			zr[j] = (zr[j] + wr[j]) + bv
		}
	}
	zh := ar.Get(batch, 4*H)
	tensor.MatMulInto(zh, hPrev, l.Wh.Value)
	tensor.AddInPlace(z, zh)

	// The gate activations overwrite their pre-activations in z, which
	// becomes the step's gate cache.
	c = ar.Get(batch, H)
	h = ar.Get(batch, H)
	tanhC := ar.Get(batch, H)
	for r := 0; r < batch; r++ {
		zr := z.Data[r*4*H : (r+1)*4*H]
		for j := 0; j < H; j++ {
			iv := sigmoid(zr[j])
			fv := sigmoid(zr[H+j])
			gv := math.Tanh(zr[2*H+j])
			ov := sigmoid(zr[3*H+j])
			cv := fv*cPrev.Data[r*H+j] + iv*gv
			tc := math.Tanh(cv)
			zr[j], zr[H+j], zr[2*H+j], zr[3*H+j] = iv, fv, gv, ov
			c.Data[r*H+j] = cv
			tanhC.Data[r*H+j] = tc
			h.Data[r*H+j] = ov * tc
		}
	}
	l.steps = append(l.steps, lstmStep{x: x, hPrev: hPrev, cPrev: cPrev, gates: z, tanhC: tanhC})
	return h, c
}

// BackwardStep pops the most recent cached step and backpropagates the
// gradients dh (w.r.t. the step's h output) and dc (w.r.t. its c output;
// nil means zero). It accumulates parameter gradients and returns the
// gradients with respect to hPrev and cPrev. There is no gradient with
// respect to x: the input is an index.
func (l *LSTM) BackwardStep(dh, dc *tensor.Tensor, ar *tensor.Arena) (dhPrev, dcPrev *tensor.Tensor) {
	if len(l.steps) == 0 {
		panic("nn: LSTM BackwardStep with no cached forward step")
	}
	st := l.steps[len(l.steps)-1]
	l.steps = l.steps[:len(l.steps)-1]

	batch := dh.Shape[0]
	H := l.Hidden
	dz := ar.Get(batch, 4*H)
	dcPrev = ar.Get(batch, H)
	for r := 0; r < batch; r++ {
		gr := st.gates.Data[r*4*H : (r+1)*4*H]
		zr := dz.Data[r*4*H : (r+1)*4*H]
		for j := 0; j < H; j++ {
			k := r*H + j
			iv, fv, gv, ov := gr[j], gr[H+j], gr[2*H+j], gr[3*H+j]
			tc := st.tanhC.Data[k]
			dhv := dh.Data[k]
			dcv := dhv * ov * (1 - tc*tc)
			if dc != nil {
				dcv += dc.Data[k]
			}
			dov := dhv * tc
			dfv := dcv * st.cPrev.Data[k]
			div := dcv * gv
			dgv := dcv * iv
			dcPrev.Data[k] = dcv * fv
			zr[j] = div * iv * (1 - iv)
			zr[H+j] = dfv * fv * (1 - fv)
			zr[2*H+j] = dgv * (1 - gv*gv)
			zr[3*H+j] = dov * ov * (1 - ov)
		}
	}
	// Each step's product completes in a temporary before it is added to
	// Grad, so the accumulation order over steps is the historical one.
	// dWx = xᵀ×dz for a one-hot x: row r of dz lands on row x[r] of dwx, in
	// batch order, the order the dense product summed a repeated index in.
	l.dwx.Zero()
	for r, ix := range st.x {
		wr := l.dwx.Data[ix*4*H : (ix+1)*4*H]
		for j, g := range dz.Data[r*4*H : (r+1)*4*H] {
			wr[j] += g
		}
	}
	tensor.AddInPlace(l.Wx.Grad, l.dwx)
	tensor.MatMulTransAInto(l.dwh, st.hPrev, dz)
	tensor.AddInPlace(l.Wh.Grad, l.dwh)
	tensor.ColSumsInto(l.db, dz)
	tensor.AddInPlace(l.B.Grad, l.db)
	dhPrev = ar.Get(batch, H)
	tensor.MatMulTransBInto(dhPrev, dz, l.Wh.Value)
	return dhPrev, dcPrev
}
