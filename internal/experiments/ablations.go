package experiments

import (
	"fmt"

	"nasgo/internal/analytics"
	"nasgo/internal/rl"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

// AblationResult compares search outcomes across variants of one design
// choice.
type AblationResult struct {
	Name     string
	Variants []AblationVariant
}

// AblationVariant is one arm of an ablation.
type AblationVariant struct {
	Label string
	Log   *search.Log
}

// MeanLate returns the mean reward over the last half of a variant's run.
func (a *AblationResult) MeanLate(label string) float64 {
	for _, v := range a.Variants {
		if v.Label != label {
			continue
		}
		half := v.Log.EndTime / 2
		var sum float64
		n := 0
		for _, r := range v.Log.Results {
			if r.FinishTime >= half {
				sum += r.Reward
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	panic("experiments: unknown ablation variant " + label)
}

// Render prints per-variant summaries.
func (a *AblationResult) Render() string {
	out := a.Name + "\n"
	for _, v := range a.Variants {
		s := analytics.Summarize(v.Log.Results)
		out += fmt.Sprintf("  %-16s best=%.3f meanLate=%.3f evals=%d cacheHits=%d unique=%d\n",
			v.Label, s.BestReward, a.MeanLate(v.Label), s.Evaluations, s.CacheHits, s.UniqueArchs)
	}
	return out
}

// runVariant executes one search with custom knobs. The unmodified default
// arm reuses the memoized Fig 4 Combo A3C run.
func runVariant(sc Scale, mutate func(*search.Config), sp *space.Space) *search.Log {
	bench := benchFor("Combo", sc.Seed)
	if mutate == nil && sp == nil {
		return runSearch("Combo", "small", search.A3C, sc, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
	}
	cfg := sc.searchCfg(search.A3C, sc.BaseAgents, sc.BaseWorkers, bench.RewardTrainFrac, sc.Seed)
	if mutate != nil {
		mutate(&cfg)
	}
	if sp == nil {
		sp = spaceFor(bench, "small")
	}
	return search.Run(bench, sp, cfg)
}

// AblationPPOClip contrasts the paper's clipped PPO objective (ε=0.2) with
// an effectively unclipped policy gradient (ε=100): clipping stabilizes
// the multi-epoch updates.
func AblationPPOClip(sc Scale) *AblationResult {
	return &AblationResult{
		Name: "Ablation — PPO clipping (Combo small space, A3C)",
		Variants: []AblationVariant{
			{Label: "clip=0.2", Log: runVariant(sc, nil, nil)},
			{Label: "unclipped", Log: runVariant(sc, func(c *search.Config) {
				c.RL = rl.Config{Clip: 100}
			}, nil)},
		},
	}
}

// AblationCacheScope contrasts the paper's per-agent evaluation cache with
// a global cache, which the paper argues would nullify agent-specific
// random weight initialization (§4).
func AblationCacheScope(sc Scale) *AblationResult {
	return &AblationResult{
		Name: "Ablation — evaluation cache scope (Combo small space, A3C)",
		Variants: []AblationVariant{
			{Label: "per-agent", Log: runVariant(sc, nil, nil)},
			{Label: "global", Log: runVariant(sc, func(c *search.Config) {
				c.Eval.GlobalCache = true
			}, nil)},
		},
	}
}

// AblationMirrorNode contrasts the Combo space's weight-shared drug
// submodel (MirrorNode) with an unshared variant where drug 2 searches its
// own encoder: sharing matches the problem's drug symmetry and shrinks both
// the search space and the models.
func AblationMirrorNode(sc Scale) *AblationResult {
	return &AblationResult{
		Name: "Ablation — MirrorNode weight sharing (Combo, A3C)",
		Variants: []AblationVariant{
			{Label: "mirrored", Log: runVariant(sc, nil, nil)},
			{Label: "unshared", Log: runVariant(sc, nil, space.NewComboSmallUnshared())},
		},
	}
}

// AblationStaleness contrasts A3C parameter-server window sizes: a larger
// window averages over staler gradients.
func AblationStaleness(sc Scale) *AblationResult {
	res := &AblationResult{Name: "Ablation — A3C gradient-window staleness (Combo small space)"}
	for _, w := range []int{1, 4, 16} {
		w := w
		res.Variants = append(res.Variants, AblationVariant{
			Label: fmt.Sprintf("window=%d", w),
			Log: runVariant(sc, func(c *search.Config) {
				c.PSWindow = w
			}, nil),
		})
	}
	return res
}

// AblationEvolution compares the paper's RL search against the regularized-
// evolution comparator (§6 "extremely scalable evolutionary approaches") on
// the same space and budget.
func AblationEvolution(sc Scale) *AblationResult {
	return &AblationResult{
		Name: "Comparison — A3C vs regularized evolution vs random (Combo small space)",
		Variants: []AblationVariant{
			{Label: "a3c", Log: runVariant(sc, nil, nil)},
			{Label: "evo", Log: runVariant(sc, func(c *search.Config) {
				c.Strategy = search.EVO
			}, nil)},
			{Label: "rdm", Log: runVariant(sc, func(c *search.Config) {
				c.Strategy = search.RDM
			}, nil)},
		},
	}
}

// MultiObjectiveResult compares accuracy-only search with the size-aware
// custom reward of §5.
type MultiObjectiveResult struct {
	Plain, Shaped *search.Log
}

// MultiObjective runs A3C with and without the parameter-count penalty and
// compares the parameter counts of the top architectures.
func MultiObjective(sc Scale) *MultiObjectiveResult {
	return &MultiObjectiveResult{
		Plain: runVariant(sc, nil, nil),
		Shaped: runVariant(sc, func(c *search.Config) {
			c.Eval.SizeWeight = 0.1
		}, nil),
	}
}

// MedianTopParams returns the median paper-dimension parameter count of a
// log's top-10 architectures.
func MedianTopParams(log *search.Log) int64 {
	top := log.TopK(10)
	if len(top) == 0 {
		return 0
	}
	params := make([]int64, len(top))
	for i, r := range top {
		params[i] = r.Params
	}
	for i := range params {
		for j := i + 1; j < len(params); j++ {
			if params[j] < params[i] {
				params[i], params[j] = params[j], params[i]
			}
		}
	}
	return params[len(params)/2]
}

// Render prints the comparison.
func (m *MultiObjectiveResult) Render() string {
	return fmt.Sprintf(
		"Multi-objective reward (size penalty 0.1) — Combo small space, A3C\n"+
			"  accuracy-only: median top-10 params = %d\n"+
			"  size-shaped:   median top-10 params = %d\n",
		MedianTopParams(m.Plain), MedianTopParams(m.Shaped))
}
