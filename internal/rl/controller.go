// Package rl implements the reinforcement-learning controller of the
// paper's NAS (§3.2): an LSTM policy network that emits one categorical
// decision per variable node of the search space, a separate LSTM value
// network serving as the state-dependent baseline, and the clipped-surrogate
// proximal policy optimization update with the paper's hyperparameters
// (single-layer LSTM with 32 units, epochs=4, clip=0.2, learning rate 0.001).
//
// Architecture generation is a Markov decision process: the decision made at
// layer t conditions, through the recurrent state, every later decision.
// An episode is one generated architecture; the reward (validation R² or
// accuracy, estimated by the evaluator) arrives only at the terminal step.
//
// Gradients are exposed as flat vectors so the search package can exchange
// them with the parameter server exactly as the paper's agents do.
package rl

import (
	"fmt"
	"math"

	"nasgo/internal/nn"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/tensor"
)

// Config holds the controller hyperparameters; zero values take the paper's
// settings.
type Config struct {
	Hidden       int     // LSTM units (paper: 32)
	LearningRate float64 // Adam LR (paper: 0.001)
	Clip         float64 // PPO clip ε (paper: 0.2)
	Epochs       int     // PPO epochs per batch (paper: 4)
	ValueCoef    float64 // value-loss weight (0.5)
	EntropyCoef  float64 // entropy-bonus weight (0.01)
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.001
	}
	if c.Clip == 0 {
		c.Clip = 0.2
	}
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.ValueCoef == 0 {
		c.ValueCoef = 0.5
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	return c
}

// Episode is one sampled architecture with the log-probabilities recorded
// at sampling time (the "old" policy of the PPO ratio) and, once estimated,
// its reward.
type Episode struct {
	Choices []int
	OldLogP []float64
	Reward  float64
}

// Controller is the per-agent policy/value pair over one search space.
type Controller struct {
	Space *space.Space
	Cfg   Config

	inWidth int // one-hot width: MaxChoices options + 1 start token
	// last is the last decision with more than one option, -1 if none. A
	// one-option decision's probability row is the constant one, so its
	// head runs neither forward nor backward, and no policy pass steps
	// past last (DESIGN §6).
	last int

	policy    *nn.LSTM
	heads     []*nn.Dense // one logits head per decision
	value     *nn.LSTM
	valueHead *nn.Dense
	params    *nn.ParamSet
	opt       *optim.Adam
	rand      *rng.Rand

	// Workspace. Sample, Greedy and ComputeGradient Reset the arena on
	// entry and take every head tensor from it (the LSTMs own theirs), so
	// nothing arena-backed outlives the call that made it; the per-step
	// slices hold arena pointers for the duration of one ComputeGradient
	// only.
	ar      *tensor.Arena
	vHeads  []*nn.Dense // valueHead once per step: each keeps its own forward cache
	values  []*tensor.Tensor
	dLogits []*tensor.Tensor
	adv     []float64 // [m*T], episode-major
	xs      []int     // [T*m], step-major: the LSTM input indices
}

// NewController builds a controller with its own deterministic RNG stream.
func NewController(s *space.Space, seed uint64, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	r := rng.New(seed)
	inWidth := s.MaxChoices() + 1
	c := &Controller{
		Space:   s,
		Cfg:     cfg,
		inWidth: inWidth,
		last:    -1,
		policy:  nn.NewLSTM(r, inWidth, cfg.Hidden),
		value:   nn.NewLSTM(r, inWidth, cfg.Hidden),
		rand:    r.Split(),
	}
	for i := 0; i < s.NumDecisions(); i++ {
		c.heads = append(c.heads, nn.NewDense(r, cfg.Hidden, s.NumChoices(i), nn.ActLinear))
		if s.NumChoices(i) > 1 {
			c.last = i
		}
	}
	c.valueHead = nn.NewDense(r, cfg.Hidden, 1, nn.ActLinear)
	c.ar = tensor.NewArena()
	c.values = make([]*tensor.Tensor, len(c.heads))
	c.dLogits = make([]*tensor.Tensor, len(c.heads))
	for range c.heads {
		c.vHeads = append(c.vHeads, nn.NewDenseShared(c.valueHead.W, c.valueHead.B, nn.ActLinear))
	}
	c.params = nn.NewParamSet()
	c.params.Add(c.policy.Params()...)
	for _, h := range c.heads {
		c.params.Add(h.Params()...)
	}
	c.params.Add(c.value.Params()...)
	c.params.Add(c.valueHead.Params()...)
	c.opt = optim.NewAdam(cfg.LearningRate)
	return c
}

// Params returns all trainable parameters (policy + value), in a fixed
// deterministic order shared by every controller built over the same space.
func (c *Controller) Params() *nn.ParamSet { return c.params }

// ControllerState is the complete serializable state of a controller: the
// flattened policy/value parameters, the Adam moments, and the sampling
// stream. Restoring it into a controller freshly built over the same space
// with the same hyperparameters continues the run bit-for-bit.
type ControllerState struct {
	Values []float64
	Opt    optim.AdamState
	Rand   rng.State
}

// CaptureState snapshots the controller without perturbing it.
func (c *Controller) CaptureState() *ControllerState {
	return &ControllerState{
		Values: c.params.FlattenValues(),
		Opt:    c.opt.CaptureState(),
		Rand:   c.rand.State(),
	}
}

// RestoreState installs a captured state. The controller must have been
// built over the same search space and configuration as the captured one;
// a parameter-count mismatch yields a descriptive error.
func (c *Controller) RestoreState(st *ControllerState) error {
	if len(st.Values) != c.params.Count() {
		return fmt.Errorf("rl: state has %d parameter values, controller has %d (space or config drifted?)",
			len(st.Values), c.params.Count())
	}
	c.params.SetValues(st.Values)
	if err := c.opt.RestoreState(c.params, st.Opt); err != nil {
		return fmt.Errorf("rl: %w", err)
	}
	c.rand.SetState(st.Rand)
	return nil
}

// onehotInputs returns the step-t LSTM input for a batch of episodes: per
// episode the index of its one-hot — the previous action, or the start token
// at t=0. Each step has its own stretch of the controller-owned scratch, so
// an LSTM may cache the slices of a whole pass; the value and policy passes
// of one batch write the same values to the same stretches.
func (c *Controller) onehotInputs(eps []*Episode, t int) []int {
	m := len(eps)
	if need := m * c.Space.NumDecisions(); cap(c.xs) < need {
		c.xs = make([]int, need)
	}
	x := c.xs[t*m : (t+1)*m]
	for i, ep := range eps {
		x[i] = c.inWidth - 1 // start token
		if t > 0 {
			x[i] = ep.Choices[t-1]
		}
	}
	return x
}

// one is the probability row of a one-option decision: the softmax of one
// finite logit is exactly 1.
var one = []float64{1}

// Sample draws m architectures from the current policy, recording the old
// log-probabilities PPO needs. Rewards are left zero for the caller to fill.
func (c *Controller) Sample(m int) []*Episode {
	if m <= 0 {
		panic("rl: Sample needs m > 0")
	}
	T := c.Space.NumDecisions()
	eps := make([]*Episode, m)
	for i := range eps {
		eps[i] = &Episode{Choices: make([]int, T), OldLogP: make([]float64, T)}
	}
	c.ar.Reset()
	c.policy.ResetCache()
	var h, cs *tensor.Tensor
	for t := 0; t < T; t++ {
		// A one-option decision still draws, so the stream is the one a
		// softmax over its single logit would have drawn from.
		k := c.Space.NumChoices(t)
		var probs *tensor.Tensor
		if t <= c.last {
			h, cs = c.policy.Step(c.onehotInputs(eps, t), h, cs)
			if k > 1 {
				logits := c.heads[t].Forward(h, false, c.ar)
				probs = c.ar.Get(logits.Shape...)
				tensor.RowSoftmaxInto(probs, logits)
			}
		}
		for i := range eps {
			row := one
			if probs != nil {
				row = probs.Data[i*k : (i+1)*k]
			}
			a := c.rand.Categorical(row)
			eps[i].Choices[t] = a
			eps[i].OldLogP[t] = math.Log(math.Max(row[a], 1e-12))
		}
	}
	c.policy.ResetCache()
	return eps
}

// Greedy returns the argmax architecture of the current policy, useful for
// reporting what the agent has converged to.
func (c *Controller) Greedy() []int {
	T := c.Space.NumDecisions()
	ep := &Episode{Choices: make([]int, T)}
	eps := []*Episode{ep}
	c.ar.Reset()
	c.policy.ResetCache()
	var h, cs *tensor.Tensor
	for t := 0; t <= c.last; t++ {
		h, cs = c.policy.Step(c.onehotInputs(eps, t), h, cs)
		if c.Space.NumChoices(t) > 1 {
			logits := c.heads[t].Forward(h, false, c.ar)
			ep.Choices[t] = tensor.ArgmaxRows(logits)[0]
		}
	}
	c.policy.ResetCache()
	return ep.Choices
}

// GradientStats reports diagnostics of the last ComputeGradient call.
type GradientStats struct {
	PolicyLoss   float64
	ValueLoss    float64
	Entropy      float64
	MeanClipFrac float64 // fraction of (episode, step) ratios clipped
}

// ComputeGradient runs one PPO epoch over the batch and returns the
// parameter gradients as a flat vector alongside diagnostics. It does not
// update parameters.
//
// The returned vector is the one fresh allocation of the call: the parameter
// server keeps the slices of its last exchanges, so it must not be reused.
func (c *Controller) ComputeGradient(eps []*Episode) ([]float64, GradientStats) {
	st := c.backprop(eps)
	return c.params.FlattenGrads(), st
}

// backprop fills the parameter gradients with ∇θ[-J(θ)] for one PPO epoch
// over the batch, so that descending minimizes the negative clipped
// surrogate plus value loss minus entropy bonus.
func (c *Controller) backprop(eps []*Episode) GradientStats {
	if len(eps) == 0 {
		panic("rl: ComputeGradient with empty batch")
	}
	m := len(eps)
	T := c.Space.NumDecisions()
	c.ar.Reset()
	c.params.ZeroGrad()

	// Value forward pass: V(s_t) for every episode and step.
	c.value.ResetCache()
	var vh, vc *tensor.Tensor
	for t := 0; t < T; t++ {
		vh, vc = c.value.Step(c.onehotInputs(eps, t), vh, vc)
		c.values[t] = c.vHeads[t].Forward(vh, true, c.ar)
	}

	// Advantages: terminal reward minus the per-step value baseline,
	// normalized over the batch (standard PPO practice).
	if cap(c.adv) < m*T {
		c.adv = make([]float64, m*T)
	}
	adv := c.adv[:m*T]
	var advMean float64
	for i, ep := range eps {
		for t := 0; t < T; t++ {
			adv[i*T+t] = ep.Reward - c.values[t].Data[i]
			advMean += adv[i*T+t]
		}
	}
	n := float64(m * T)
	advMean /= n
	var advVar float64
	for _, a := range adv {
		d := a - advMean
		advVar += float64(d * d) // a conversion rounds: no fused multiply-add (DESIGN §6)
	}
	advStd := math.Sqrt(advVar/n) + 1e-8
	for j, a := range adv {
		adv[j] = (a - advMean) / advStd
	}

	// Policy forward pass with caches for backprop; each step's dLogits
	// follow from the clipped surrogate and the entropy bonus. A one-option
	// decision and every step past the last choice still add their stats,
	// from the constant row, in step order; their dLogits are exactly +0
	// and not formed.
	var st GradientStats
	clipped := 0
	c.policy.ResetCache()
	var ph, pc *tensor.Tensor
	for t := 0; t < T; t++ {
		k := c.Space.NumChoices(t)
		var probs, dl *tensor.Tensor
		if t <= c.last {
			ph, pc = c.policy.Step(c.onehotInputs(eps, t), ph, pc)
			if k > 1 {
				logits := c.heads[t].Forward(ph, true, c.ar)
				probs = c.ar.Get(logits.Shape...)
				tensor.RowSoftmaxInto(probs, logits)
				dl = c.ar.Get(m, k)
			}
		}
		for i, ep := range eps {
			row := one
			if probs != nil {
				row = probs.Data[i*k : (i+1)*k]
			}
			a := ep.Choices[t]
			logp := math.Log(math.Max(row[a], 1e-12))
			ratio := math.Exp(logp - ep.OldLogP[t])
			A := adv[i*T+t]
			// Clipped surrogate J = min(r·A, clip(r)·A). Its gradient
			// w.r.t. logp is r·A when unclipped and 0 when the clipped
			// branch is active (clip(r) is constant in θ there).
			unclipped := ratio * A
			lo, hi := 1-c.Cfg.Clip, 1+c.Cfg.Clip
			cr := math.Min(math.Max(ratio, lo), hi)
			clippedObj := cr * A
			obj := math.Min(unclipped, clippedObj)
			st.PolicyLoss -= obj / n
			dObjDLogp := 0.0
			if unclipped <= clippedObj {
				dObjDLogp = ratio * A
			} else {
				clipped++
			}
			// d(-J)/dlogits = -dObjDLogp * dlogp/dlogits; with softmax,
			// dlogp_a/dlogits_j = δ_aj - p_j.
			// Entropy H = -Σ p log p; maximize → subtract β·dH/dlogits.
			var H float64
			for _, p := range row {
				if p > 0 {
					H -= float64(p * math.Log(p))
				}
			}
			st.Entropy += H / n
			if dl == nil {
				continue
			}
			g := dl.Data[i*k : (i+1)*k]
			for j := 0; j < k; j++ {
				ind := 0.0
				if j == a {
					ind = 1
				}
				g[j] = -dObjDLogp * (ind - row[j]) / n
				// Entropy gradient via logits: dH/dlogits_j =
				// -p_j (log p_j + H)... using H = -Σ p log p:
				// dH/dz_j = -p_j*(log p_j + H).
				if row[j] > 0 {
					g[j] += c.Cfg.EntropyCoef * row[j] * (math.Log(row[j]) + H) / n
				}
			}
		}
		c.dLogits[t] = dl
	}
	st.MeanClipFrac = float64(clipped) / n

	// Backprop policy: heads then BPTT, from the last choice. A skipped
	// head's input gradient would be +0, so dh passes through unchanged.
	var dh, dc *tensor.Tensor
	for t := c.last; t >= 0; t-- {
		g := dh
		if c.dLogits[t] != nil {
			g = c.heads[t].Backward(c.dLogits[t], c.ar)
			if dh != nil {
				tensor.AddInPlace(g, dh)
			}
		}
		dh, dc = c.policy.BackwardStep(g, dc)
	}

	// Value loss: 0.5-weighted MSE of V(s_t) against the terminal reward.
	var dvh, dvc *tensor.Tensor
	for t := T - 1; t >= 0; t-- {
		dv := c.ar.Get(m, 1)
		for i, ep := range eps {
			diff := c.values[t].Data[i] - ep.Reward
			st.ValueLoss += diff * diff / n
			dv.Data[i] = c.Cfg.ValueCoef * 2 * diff / n
		}
		g := c.vHeads[t].Backward(dv, c.ar)
		if dvh != nil {
			tensor.AddInPlace(g, dvh)
		}
		dvh, dvc = c.value.BackwardStep(g, dvc)
	}

	return st
}

// ApplyGradient installs a (possibly averaged) flat gradient and takes one
// Adam step.
func (c *Controller) ApplyGradient(flat []float64) {
	c.params.SetGrads(flat)
	c.opt.Step(c.params)
}

// Update runs the full PPO update locally (Cfg.Epochs gradient steps) with
// no parameter-server exchange — the single-agent code path used by the
// quickstart example and tests. The gradients never leave the parameters,
// so it allocates nothing. Returns the stats of the last epoch.
func (c *Controller) Update(eps []*Episode) GradientStats {
	var st GradientStats
	for e := 0; e < c.Cfg.Epochs; e++ {
		st = c.backprop(eps)
		c.opt.Step(c.params)
	}
	return st
}

// String describes the controller briefly.
func (c *Controller) String() string {
	return fmt.Sprintf("Controller(space=%s, decisions=%d, hidden=%d)",
		c.Space.Name, c.Space.NumDecisions(), c.Cfg.Hidden)
}
