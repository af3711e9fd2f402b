package search

import (
	"fmt"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// skipSlow marks a tier-2 test — one that trains real networks at the full
// default RealEpochs budget — so `go test -short ./...` stays a fast gate
// (see CLAUDE.md "Test tiers"). The TestShort* tests run in every tier:
// they are scripts/check.sh's race-detector and determinism gate.
func skipSlow(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("tier-2 real-training test skipped in -short")
	}
}

// smallCfg keeps test searches fast: few agents, short horizon.
func smallCfg(strategy string, seed uint64) Config {
	return Config{
		Strategy:        strategy,
		Agents:          3,
		WorkersPerAgent: 3,
		Horizon:         1200, // 20 virtual minutes
		Seed:            seed,
	}
}

// runCache shares runs between tests that only inspect log properties, so
// the suite stays well under go test's per-package timeout. Tests probing
// determinism call Run directly.
var runCache = map[string]*Log{}

func runSmall(t *testing.T, strategy string, seed uint64) *Log {
	t.Helper()
	key := fmt.Sprintf("%s-%d", strategy, seed)
	if log, ok := runCache[key]; ok {
		return log
	}
	bench := candle.NewCombo(candle.Config{Seed: seed})
	sp := space.NewComboSmall()
	log := Run(bench, sp, smallCfg(strategy, seed))
	runCache[key] = log
	return log
}

func TestStrategiesProduceResults(t *testing.T) {
	skipSlow(t)
	for _, strategy := range []string{A3C, A2C, RDM} {
		log := runSmall(t, strategy, 1)
		if len(log.Results) == 0 {
			t.Fatalf("%s: no results", strategy)
		}
		if log.EndTime <= 0 {
			t.Fatalf("%s: EndTime = %g", strategy, log.EndTime)
		}
		for _, r := range log.Results {
			if err := space.NewComboSmall().CheckChoices(r.Choices); err != nil {
				t.Fatalf("%s: invalid arch in results: %v", strategy, err)
			}
		}
		if len(log.Utilization) == 0 {
			t.Fatalf("%s: no utilization series", strategy)
		}
		for _, u := range log.Utilization {
			if u < 0 || u > 1+1e-9 {
				t.Fatalf("%s: utilization %g out of range", strategy, u)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	skipSlow(t)
	bench := candle.NewCombo(candle.Config{Seed: 7})
	sp := space.NewComboSmall()
	a := Run(bench, sp, smallCfg(A3C, 7))
	b := Run(bench, sp, smallCfg(A3C, 7))
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].Key != b.Results[i].Key || a.Results[i].Reward != b.Results[i].Reward {
			t.Fatalf("result %d differs between identical runs", i)
		}
	}
	if a.EndTime != b.EndTime {
		t.Fatalf("end times differ: %g vs %g", a.EndTime, b.EndTime)
	}
}

func TestSeedsChangeTrajectory(t *testing.T) {
	skipSlow(t)
	a := runSmall(t, A3C, 1)
	b := runSmall(t, A3C, 8)
	if len(a.Results) == len(b.Results) {
		same := true
		for i := range a.Results {
			if a.Results[i].Key != b.Results[i].Key {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical searches")
		}
	}
}

func TestPSStatsPopulated(t *testing.T) {
	skipSlow(t)
	a3c := runSmall(t, A3C, 1)
	if a3c.PS.Exchanges == 0 {
		t.Fatal("A3C recorded no PS exchanges")
	}
	a2c := runSmall(t, A2C, 1)
	if a2c.PS.Rounds == 0 {
		t.Fatal("A2C recorded no sync rounds")
	}
	rdm := runSmall(t, RDM, 1)
	if rdm.PS.Exchanges != 0 {
		t.Fatal("RDM must not exchange gradients")
	}
}

func TestA2CLockstep(t *testing.T) {
	skipSlow(t)
	// In A2C every completed sync round has exactly Agents gradients, so
	// exchanges must be an exact multiple of Agents.
	log := runSmall(t, A2C, 1)
	if log.PS.Exchanges%log.Config.Agents != 0 {
		// The final round may be cut off by the horizon with some agents
		// still waiting at the barrier; those pending exchanges are
		// counted. Allow a remainder strictly smaller than Agents.
		rem := log.PS.Exchanges % log.Config.Agents
		if rem >= log.Config.Agents {
			t.Fatalf("exchanges %d not consistent with %d-agent rounds", log.PS.Exchanges, log.Config.Agents)
		}
	}
	if log.PS.Rounds*log.Config.Agents > log.PS.Exchanges {
		t.Fatalf("rounds %d × agents exceeds exchanges %d", log.PS.Rounds, log.PS.Exchanges)
	}
}

func TestTopK(t *testing.T) {
	skipSlow(t)
	log := runSmall(t, RDM, 1)
	top := log.TopK(5)
	if len(top) == 0 {
		t.Fatal("TopK returned nothing")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Reward > top[i-1].Reward {
			t.Fatal("TopK not sorted by reward")
		}
	}
	seen := map[string]bool{}
	for _, r := range top {
		if seen[r.Key] {
			t.Fatal("TopK returned duplicate architectures")
		}
		seen[r.Key] = true
	}
	// k larger than the distinct count is clamped.
	all := log.TopK(1 << 30)
	if len(all) != log.UniqueArchitectures() {
		t.Fatalf("TopK(max) = %d, unique = %d", len(all), log.UniqueArchitectures())
	}
}

// TestTopKTiesAreOrdered: four architectures tied on reward and finish time
// come out in key order on every call — map iteration decided before.
func TestTopKTiesAreOrdered(t *testing.T) {
	log := &Log{}
	for _, key := range []string{"c", "a", "d", "b"} {
		log.Results = append(log.Results, &evaluator.Result{Key: key, Reward: 0.5, FinishTime: 10})
	}
	for i := 0; i < 200; i++ {
		top := log.TopK(4)
		if got := top[0].Key + top[1].Key + top[2].Key + top[3].Key; got != "abcd" {
			t.Fatalf("call %d: TopK order %q, want \"abcd\"", i, got)
		}
	}
}

func TestHorizonRespected(t *testing.T) {
	skipSlow(t)
	log := runSmall(t, A3C, 1)
	// No result may finish absurdly after the horizon: in-flight tasks may
	// drain past it, but only by at most one task duration (< timeout).
	for _, r := range log.Results {
		if r.FinishTime > log.Config.Horizon+700 {
			t.Fatalf("result finished at %g, far beyond horizon %g", r.FinishTime, log.Config.Horizon)
		}
	}
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bench := candle.NewCombo(candle.Config{Seed: 1})
	Run(bench, space.NewComboSmall(), Config{Strategy: "dqn"})
}

// TestA3CLearns is the core search property (Fig 4's shape): with enough
// virtual time, A3C's later rewards beat its earlier rewards, and beat RDM's
// best-so-far at equal times... kept modest here (small agent counts) and
// verified properly by the Fig 4 bench.
func TestA3CRewardImproves(t *testing.T) {
	skipSlow(t)
	bench := candle.NewCombo(candle.Config{Seed: 3})
	sp := space.NewComboSmall()
	cfg := smallCfg(A3C, 3)
	cfg.Horizon = 4500 // 75 virtual minutes
	log := Run(bench, sp, cfg)
	if len(log.Results) < 20 {
		t.Fatalf("too few results to compare: %d", len(log.Results))
	}
	n := len(log.Results)
	firstQ := log.Results[:n/4]
	lastQ := log.Results[3*n/4:]
	mean := func(rs []*evaluator.Result) float64 {
		var s float64
		for _, r := range rs {
			s += r.Reward
		}
		return s / float64(len(rs))
	}
	if mean(lastQ) <= mean(firstQ) {
		t.Fatalf("A3C did not improve: first quartile %.3f, last %.3f", mean(firstQ), mean(lastQ))
	}
}

// tinyComboSpace builds a 4-architecture space over Combo's three inputs so
// the per-agent caches saturate within a few rounds.
func tinyComboSpace() *space.Space {
	ops := []space.Op{
		space.DenseOp{Units: 100, Act: "relu"},
		space.DenseOp{Units: 100, Act: "tanh"},
	}
	sp := &space.Space{
		Name:      "tiny-combo",
		Benchmark: "Combo",
		Inputs: []space.InputSpec{
			{Name: "cell", PaperDim: 942},
			{Name: "d1", PaperDim: 3820},
			{Name: "d2", PaperDim: 3820},
		},
		Cells: []*space.Cell{{Name: "C0", Blocks: []*space.Block{
			{Name: "B0", InputKind: space.FromModelInput, InputIndex: 0, Nodes: []space.Node{
				space.NewVariableNode("n0", ops...),
				space.NewVariableNode("n1", ops...),
			}},
		}}},
		OutputUnits: 1,
	}
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	return sp
}

// TestConvergenceStop reproduces the paper's §5.1 early stop: once every
// agent keeps regenerating architectures its cache has already evaluated,
// the search detects it and stops before the horizon.
func TestConvergenceStop(t *testing.T) {
	skipSlow(t)
	bench := candle.NewCombo(candle.Config{Seed: 21})
	sp := tinyComboSpace()
	cfg := Config{
		Strategy:        A3C,
		Agents:          2,
		WorkersPerAgent: 4,
		Horizon:         6 * 3600,
		Seed:            21,
	}
	log := Run(bench, sp, cfg)
	if !log.Converged {
		t.Fatal("search over a 4-architecture space did not converge")
	}
	if log.EndTime >= cfg.Horizon {
		t.Fatalf("converged run ended at the horizon (%g)", log.EndTime)
	}
	if log.CacheHits == 0 {
		t.Fatal("converged run recorded no cache hits")
	}
	// The cache bounds real evaluations: at most 4 architectures per
	// agent ever run as actual tasks.
	if log.Evaluations > 2*4 {
		t.Fatalf("real evaluations = %d, want <= 8", log.Evaluations)
	}
}

func TestConvergenceDisabled(t *testing.T) {
	skipSlow(t)
	bench := candle.NewCombo(candle.Config{Seed: 22})
	sp := tinyComboSpace()
	cfg := Config{
		Strategy:        A3C,
		Agents:          2,
		WorkersPerAgent: 2,
		Horizon:         1800,
		Seed:            22,
		ConvergeRounds:  -1,
	}
	log := Run(bench, sp, cfg)
	if log.Converged {
		t.Fatal("convergence stop fired despite being disabled")
	}
}

func TestEvolutionStrategy(t *testing.T) {
	skipSlow(t)
	log := runSmall(t, EVO, 31)
	if len(log.Results) == 0 {
		t.Fatal("EVO produced no results")
	}
	if log.PS.Exchanges != 0 {
		t.Fatal("EVO must not use the parameter server")
	}
	// With aging evolution the later offspring should beat random: compare
	// last-quartile mean against first-quartile mean.
	n := len(log.Results)
	if n >= 20 {
		mean := func(lo, hi int) float64 {
			var s float64
			for _, r := range log.Results[lo:hi] {
				s += r.Reward
			}
			return s / float64(hi-lo)
		}
		if mean(3*n/4, n) <= mean(0, n/4)-0.05 {
			t.Fatalf("evolution regressed: first %.3f last %.3f", mean(0, n/4), mean(3*n/4, n))
		}
	}
}

func TestEvoProposeAndAging(t *testing.T) {
	sp := tinyComboSpace()
	st := newEvoState(3, rng.New(5))
	// Filling phase: random proposals.
	for i := 0; i < 3; i++ {
		c := st.propose(sp)
		if err := sp.CheckChoices(c); err != nil {
			t.Fatal(err)
		}
		st.record(c, float64(i)) // rewards 0, 1, 2
	}
	if len(st.population) != 3 {
		t.Fatalf("population = %d", len(st.population))
	}
	// Mutation phase: proposals stay valid, the population stays capped,
	// and aging retires the earliest members regardless of fitness.
	for i := 0; i < 20; i++ {
		c := st.propose(sp)
		if err := sp.CheckChoices(c); err != nil {
			t.Fatal(err)
		}
		st.record(c, 10)
	}
	if len(st.population) != 3 {
		t.Fatalf("population grew: %d", len(st.population))
	}
	for _, m := range st.population {
		if m.reward != 10 {
			t.Fatalf("stale member (reward %g) survived aging", m.reward)
		}
	}
}

func TestNT3Search(t *testing.T) {
	skipSlow(t)
	bench := candle.NewNT3(candle.Config{Seed: 5})
	sp := space.NewNT3Small()
	cfg := smallCfg(A3C, 5)
	cfg.Horizon = 1200
	log := Run(bench, sp, cfg)
	if len(log.Results) == 0 {
		t.Fatal("NT3 search produced no results")
	}
	for _, r := range log.Results {
		if r.Reward < 0 || r.Reward > 1 {
			t.Fatalf("NT3 reward %g out of [0,1]", r.Reward)
		}
	}
}
