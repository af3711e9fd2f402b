// Package experiments encodes every table and figure of the paper's
// evaluation (§5) as a reproducible experiment: a workload definition, the
// search/post-training runs it needs, and a renderer that prints the same
// rows and series the paper reports.
//
// Search runs are memoized in-process by their full configuration, so
// figures that share runs (Fig 4/5/7 share the small-space searches;
// Fig 6/8/9/10/11 share the Combo large-space A3C run) execute each search
// once per process.
//
// Scale presets translate the paper's 256/512/1024-node Theta runs into
// configurations that are tractable for the pure-Go substrate while
// preserving the agents-to-workers structure the scaling study varies.
package experiments

import (
	"fmt"
	"strings"
	"sync"

	"nasgo/internal/candle"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

// Scale sets the resource knobs of all experiments.
type Scale struct {
	// BaseAgents and BaseWorkers are the paper's 21 agents × 11 workers
	// at 256 nodes; scaling experiments multiply them.
	BaseAgents  int
	BaseWorkers int
	// Horizon is the virtual wall-clock budget (paper: 6 h).
	Horizon float64
	// Replications is the Fig 13 repeat count (paper: 10).
	Replications int
	// TopK is the post-training selection size (paper: 50).
	TopK int
	// PostEpochs is the post-training epoch count (paper: 20).
	PostEpochs int
	// Seed is the root seed of every run.
	Seed uint64
}

// PaperScale is the paper's configuration. Running it end-to-end in pure
// Go is possible but slow; it exists for completeness and for cmd/nas-bench
// users with patience.
var PaperScale = Scale{
	BaseAgents: 21, BaseWorkers: 11, Horizon: 6 * 3600,
	Replications: 10, TopK: 50, PostEpochs: 20, Seed: 42,
}

// DefaultScale balances fidelity and runtime for cmd/nas-bench.
var DefaultScale = Scale{
	BaseAgents: 8, BaseWorkers: 5, Horizon: 3 * 3600,
	Replications: 5, TopK: 20, PostEpochs: 15, Seed: 42,
}

// QuickScale keeps the full suite runnable in minutes; the committed
// bench_results/ reports are rendered at it. Workers-per-agent stays closer
// to the paper's 11 than the agent count does, because it is the PPO batch
// size and directly gates learning.
var QuickScale = Scale{
	BaseAgents: 3, BaseWorkers: 6, Horizon: 3600,
	Replications: 3, TopK: 8, PostEpochs: 12, Seed: 42,
}

// ScaleByName returns a preset by name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale, nil
	case "default":
		return DefaultScale, nil
	case "quick":
		return QuickScale, nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q (have quick, default, paper)", name)
	}
}

// searchCfg builds the search configuration for a strategy at this scale.
// Eval.Workers stays 0 — the evaluator's own default, GOMAXPROCS — because
// results are bit-identical at every pool width.
func (s Scale) searchCfg(strategy string, agents, workers int, fidelity float64, seed uint64) search.Config {
	cfg := search.Config{
		Strategy:        strategy,
		Agents:          agents,
		WorkersPerAgent: workers,
		Horizon:         s.Horizon,
		Seed:            seed,
	}
	cfg.Eval.Fidelity = fidelity
	return cfg
}

// runCache memoizes search runs by configuration.
var (
	runMu    sync.Mutex
	runCache = map[string]*search.Log{}
)

// ResetCache drops all memoized runs (tests use it for isolation).
func ResetCache() {
	runMu.Lock()
	defer runMu.Unlock()
	runCache = map[string]*search.Log{}
}

// runSearch executes (or recalls) one search run.
func runSearch(benchName, spaceSize, strategy string, sc Scale, agents, workers int, fidelity float64, seed uint64) *search.Log {
	key := fmt.Sprintf("%s|%s|%s|a%d|w%d|h%g|f%g|s%d",
		benchName, spaceSize, strategy, agents, workers, sc.Horizon, fidelity, seed)
	runMu.Lock()
	if log, ok := runCache[key]; ok {
		runMu.Unlock()
		return log
	}
	runMu.Unlock()

	bench, err := candle.ByName(benchName, candle.Config{Seed: seed})
	if err != nil {
		panic(err)
	}
	sp, err := bench.Space(spaceSize)
	if err != nil {
		panic(err)
	}
	log := search.Run(bench, sp, sc.searchCfg(strategy, agents, workers, fidelity, seed))

	runMu.Lock()
	runCache[key] = log
	runMu.Unlock()
	return log
}

// benchFor rebuilds the benchmark used by a memoized run (datasets are
// deterministic in the seed, so this is cheap and exact).
func benchFor(benchName string, seed uint64) *candle.Benchmark {
	bench, err := candle.ByName(benchName, candle.Config{Seed: seed})
	if err != nil {
		panic(err)
	}
	return bench
}

func spaceFor(bench *candle.Benchmark, size string) *space.Space {
	sp, err := bench.Space(size)
	if err != nil {
		panic(err)
	}
	return sp
}

// Strategies in the order the paper plots them.
var Strategies = []string{search.A3C, search.A2C, search.RDM}

// renderer is what every experiment result can do.
type renderer interface{ Render() string }

// of adapts an experiment constructor to a registry entry.
func of[R renderer](run func(Scale) R) func(Scale) string {
	return func(sc Scale) string { return run(sc).Render() }
}

// perBench adapts a per-benchmark figure: one panel per CANDLE benchmark.
func perBench[R renderer](run func(string, Scale) R) func(Scale) string {
	return func(sc Scale) string {
		out := ""
		for _, bench := range []string{"Combo", "Uno", "NT3"} {
			out += run(bench, sc).Render() + "\n"
		}
		return out
	}
}

// registry is the one ordered list of experiments — the paper's figures and
// table, the ablations of DESIGN.md §11, and the infrastructure experiments.
// Names, Render, cmd/nas-bench's "-exp all" loop and its usage text all
// derive from it; bench_results/<id>.txt is named after the id.
var registry = []struct {
	id     string
	render func(Scale) string
}{
	{"fig4", perBench(Fig4)},
	{"fig5", perBench(Fig5)},
	{"fig6", of(Fig6)},
	{"fig7", of(Fig7)},
	{"fig8", of(Fig8)},
	{"fig9", of(Fig9)},
	{"fig10", of(Fig10)},
	{"fig11", of(Fig11)},
	{"fig12", of(Fig12)},
	{"fig13", of(Fig13)},
	{"table1", of(Table1)},
	{"ablation-clip", of(AblationPPOClip)},
	{"ablation-cache", of(AblationCacheScope)},
	{"ablation-mirror", of(AblationMirrorNode)},
	{"ablation-staleness", of(AblationStaleness)},
	{"ablation-evolution", of(AblationEvolution)},
	{"multiobjective", of(MultiObjective)},
	{"faults", of(Faults)},
	{"restart", of(Restart)},
	{"torture", of(Torture)},
	{"simbench", of(Simbench)},
	{"tournament", of(Tournament)},
}

// Names lists every experiment id this package can regenerate, in registry
// order.
func Names() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Render runs the experiment with the given id at the given scale and
// returns its rendered output.
func Render(id string, sc Scale) (string, error) {
	for _, e := range registry {
		if e.id == id {
			return e.render(sc), nil
		}
	}
	return "", fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(Names(), ", "))
}
