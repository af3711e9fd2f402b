package search

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/space"
)

// equivCfg is faultCfg shrunk to the smallest search that still exercises
// node failures, retries, stragglers, and (for A3C/A2C) the parameter
// server — FuzzScenario runs every configuration at least twice.
func equivCfg(strategy string, seed uint64) Config {
	cfg := faultCfg(strategy, seed)
	cfg.Agents = 2
	cfg.WorkersPerAgent = 2
	cfg.Horizon = 900
	return cfg
}

// logJSON renders a log the way WriteJSONFS does; byte equality of this
// rendering is the acceptance bar for resume equivalence.
func logJSON(t *testing.T, l *Log) []byte {
	t.Helper()
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// diffJSON fails with the first point of divergence, with enough context to
// see which field drifted.
func diffJSON(t *testing.T, what string, plain, chained []byte) {
	t.Helper()
	if bytes.Equal(plain, chained) {
		return
	}
	n := len(plain)
	if len(chained) < n {
		n = len(chained)
	}
	i := 0
	for i < n && plain[i] == chained[i] {
		i++
	}
	lo := i - 120
	if lo < 0 {
		lo = 0
	}
	hiP, hiC := i+120, i+120
	if hiP > len(plain) {
		hiP = len(plain)
	}
	if hiC > len(chained) {
		hiC = len(chained)
	}
	t.Fatalf("%s: chained log diverges from the uninterrupted run at byte %d\nplain:   …%s…\nchained: …%s…",
		what, i, plain[lo:hiP], chained[lo:hiC])
}

// TestNaNRewardGuard plants a NaN into every shaped reward through a NaN
// size weight. The evaluator must convert each into a failed estimation and
// the search must keep cycling rounds without poisoning any policy
// parameter; the mid-run checkpoint makes the policy state inspectable.
func TestNaNRewardGuard(t *testing.T) {
	skipSlow(t)
	cfg := smallCfg(A3C, 55)
	cfg.Agents = 2
	cfg.WorkersPerAgent = 2
	cfg.Horizon = 900
	cfg.Eval.RealEpochs = 1
	cfg.Eval.RealBatchSize = 64
	cfg.Eval.SizeWeight = math.NaN()
	cfg.Walltime = 400
	sp := space.NewComboSmall()
	bench := func() *candle.Benchmark { return candle.NewCombo(candle.Config{Seed: 55}) }

	log, ck, err := Allocate(bench(), sp, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("search finished inside the first allocation; nothing to inspect")
	}
	finite := func(vs []float64, what string) {
		t.Helper()
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite %s %g leaked through a NaN reward", what, v)
			}
		}
	}
	for i := range ck.Agents {
		ctrl := ck.Agents[i].Ctrl
		if ctrl == nil {
			t.Fatalf("agent %d: missing controller state", i)
		}
		finite(ctrl.Values, "policy parameter")
		finite(ctrl.Opt.M, "Adam first moment")
		finite(ctrl.Opt.V, "Adam second moment")
	}
	for err == nil && ck != nil {
		log, ck, err = Allocate(bench(), sp, Config{}, ck, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range log.Results {
		if !r.Failed {
			t.Fatalf("non-finite reward not marked failed: %+v", r)
		}
		if r.Reward != 0 {
			t.Fatalf("failed estimation carries reward %g, want 0", r.Reward)
		}
		if r.Err == "" {
			t.Fatal("failed estimation carries no error description")
		}
		if r.Cached {
			t.Fatal("a non-finite result was served from cache")
		}
	}
	if log.FailedEvals != len(log.Results) {
		t.Fatalf("FailedEvals = %d, want every one of the %d estimations", log.FailedEvals, len(log.Results))
	}
	// The agents kept submitting rounds after the first all-failed one.
	if len(log.Results) <= cfg.Agents*cfg.WorkersPerAgent {
		t.Fatal("search stalled after its first round of NaN rewards")
	}
}

// minimalCheckpoint returns the smallest Checkpoint LoadCheckpointFS accepts,
// for file-format tests that need no search run.
func minimalCheckpoint() *Checkpoint {
	return &Checkpoint{
		Bench:     "Combo",
		SpaceName: "combo-small",
		Config:    Config{Strategy: RDM, Agents: 1, WorkersPerAgent: 1, Horizon: 100, Walltime: 50},
		Agents:    make([]AgentState, 1),
		Eval:      &evaluator.State{},
		Service:   &balsam.State{},
	}
}

// TestCheckpointFileRejectsCorruption: a checkpoint file truncated at any
// byte, bit-flipped, re-versioned, or extended is rejected with a
// descriptive error — never a zero-valued checkpoint, never a panic.
// evoFaultedCkpt is the first walltime cut (Walltime 600) of a faulted EVO
// search — equivCfg(EVO, 94) with EvoPopulation 3 and MaxRetries -1 — as
// written before checkpoints stored each record in its live type: it still
// carries EvoAgentState.Capacity, AgentState.Failed, Checkpoint.FailedEvals
// and evaluator.State.CacheHits, and its members and episodes as the copied
// types of that code. It was recorded in a tree of commit 4919f4d
// (git archive 4919f4d | tar -x) by a test there that ran
//
//	Allocate(candle.NewCombo(candle.Config{Seed: 94}), space.NewComboSmall(), cfg, nil, nil)
//
// with that cfg and wrote the returned checkpoint with WriteFileFS. That
// test also ran the search uninterrupted; evoFaultedLogSHA is the SHA-256
// of its log JSON with Config.Walltime zeroed.
const (
	evoFaultedCkpt   = "testdata/evo_faulted.ckpt"
	evoFaultedLogSHA = "41ac6ec32ee3ad5a9f6e48e8ec81a35cc8d812933a0cf397504eb3d7144db292"
)

// TestShortOldEvoCheckpointRestores: the committed old-form EVO checkpoint,
// cut with full populations and a failed episode in a round still in
// flight, loads, continues to the end, and finishes with the log of the
// uninterrupted run — the same run today and at the recording commit.
func TestShortOldEvoCheckpointRestores(t *testing.T) {
	raw, err := os.ReadFile(evoFaultedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Capacity", "FailedEvals", "CacheHits"} {
		if !bytes.Contains(raw, []byte(field)) {
			t.Fatalf("%s has no %s field: not the old-form checkpoint", evoFaultedCkpt, field)
		}
	}
	ck, err := LoadCheckpointFS(fsim.OS, evoFaultedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	failedMidRound := false
	for i, a := range ck.Agents {
		if a.Evo == nil || len(a.Evo.Population) != ck.Config.EvoPopulation {
			t.Fatalf("agent %d: population not full at the cut: %+v", i, a.Evo)
		}
		failedMidRound = failedMidRound || (a.Pending > 0 && slices.Contains(a.FailedEp, true))
	}
	if !failedMidRound || ck.Partial.FailedEvals == 0 {
		t.Fatalf("cut carries no failure to restore (mid-round %v, FailedEvals %d)", failedMidRound, ck.Partial.FailedEvals)
	}

	sp := space.NewComboSmall()
	bench := func() *candle.Benchmark { return candle.NewCombo(candle.Config{Seed: ck.Config.Seed}) }
	log, next, err := Allocate(bench(), sp, Config{}, ck, nil)
	for err == nil && next != nil {
		log, next, err = Allocate(bench(), sp, Config{}, next, nil)
	}
	if err != nil {
		t.Fatalf("continue old-form checkpoint: %v", err)
	}
	plainCfg := ck.Config
	plainCfg.Walltime = 0
	plain := Run(bench(), sp, plainCfg)
	log.Config.Walltime = 0
	if got, want := logSHA(t, plain), evoFaultedLogSHA; got != want {
		t.Errorf("uninterrupted run's log sha256 %s, recorded %s", got, want)
	}
	diffJSON(t, "continued old-form EVO checkpoint", logJSON(t, plain), logJSON(t, log))
}

func TestCheckpointFileRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck")
	if err := minimalCheckpoint().WriteFileFS(fsim.OS, path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFS(fsim.OS, path); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad")
	for n := 0; n < len(raw); n++ {
		if werr := os.WriteFile(bad, raw[:n], 0o644); werr != nil {
			t.Fatal(werr)
		}
		if _, lerr := LoadCheckpointFS(fsim.OS, bad); lerr == nil {
			t.Fatalf("checkpoint truncated to %d/%d bytes was accepted", n, len(raw))
		} else if !strings.Contains(lerr.Error(), "truncated") {
			t.Fatalf("truncation to %d bytes: error %q does not say truncated", n, lerr)
		}
	}
	flip := append([]byte(nil), raw...)
	flip[len(flip)-1] ^= 0x40
	if werr := os.WriteFile(bad, flip, 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, lerr := LoadCheckpointFS(fsim.OS, bad); lerr == nil || !strings.Contains(lerr.Error(), "checksum") {
		t.Fatalf("flipped payload byte: got %v, want checksum mismatch", lerr)
	}
	wrong := append([]byte(nil), raw...)
	copy(wrong, "notackpt")
	if werr := os.WriteFile(bad, wrong, 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, lerr := LoadCheckpointFS(fsim.OS, bad); lerr == nil || !strings.Contains(lerr.Error(), "magic") {
		t.Fatalf("foreign file: got %v, want bad-magic error", lerr)
	}
	future := append([]byte(nil), raw...)
	future[11] = 99
	if werr := os.WriteFile(bad, future, 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, lerr := LoadCheckpointFS(fsim.OS, bad); lerr == nil || !strings.Contains(lerr.Error(), "version") {
		t.Fatalf("future format version: got %v, want version error", lerr)
	}
	trailing := append(append([]byte(nil), raw...), "junk"...)
	if werr := os.WriteFile(bad, trailing, 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, lerr := LoadCheckpointFS(fsim.OS, bad); lerr == nil || !strings.Contains(lerr.Error(), "trailing") {
		t.Fatalf("trailing garbage: got %v, want trailing-bytes error", lerr)
	}
}

// TestCheckpointValidation: files that decode cleanly but describe an
// impossible search are rejected, and resume refuses mismatched inputs.
func TestCheckpointValidation(t *testing.T) {
	dir := t.TempDir()
	load := func(name string, ck *Checkpoint) error {
		path := filepath.Join(dir, name)
		if err := ck.WriteFileFS(fsim.OS, path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpointFS(fsim.OS, path)
		return err
	}

	ck := minimalCheckpoint()
	ck.Config.Strategy = "dqn"
	if err := load("strategy", ck); err == nil || !strings.Contains(err.Error(), "strategy") {
		t.Fatalf("unknown strategy: %v", err)
	}
	ck = minimalCheckpoint()
	ck.Bench = ""
	if err := load("bench", ck); err == nil || !strings.Contains(err.Error(), "benchmark") {
		t.Fatalf("missing benchmark: %v", err)
	}
	ck = minimalCheckpoint()
	ck.Agents = nil
	if err := load("agents", ck); err == nil || !strings.Contains(err.Error(), "agent states") {
		t.Fatalf("agent count mismatch: %v", err)
	}
	// A well-framed checkpoint missing a component must not load: Allocate
	// would dereference it.
	ck = minimalCheckpoint()
	ck.Eval = nil
	if err := load("eval", ck); err == nil || !strings.Contains(err.Error(), "evaluator or service") {
		t.Fatalf("missing evaluator state: %v", err)
	}
	ck = minimalCheckpoint()
	ck.Service = nil
	if err := load("service", ck); err == nil || !strings.Contains(err.Error(), "evaluator or service") {
		t.Fatalf("missing service state: %v", err)
	}

	bench := candle.NewCombo(candle.Config{Seed: 1})
	sp := space.NewComboSmall()
	ck = minimalCheckpoint()
	ck.Bench = "NT3"
	if _, _, err := Allocate(bench, sp, Config{}, ck, nil); err == nil || !strings.Contains(err.Error(), "benchmark") {
		t.Fatalf("benchmark mismatch: %v", err)
	}
	ck = minimalCheckpoint()
	ck.Bench = bench.Name
	ck.SpaceName = "some-other-space"
	if _, _, err := Allocate(bench, sp, Config{}, ck, nil); err == nil || !strings.Contains(err.Error(), "space") {
		t.Fatalf("space mismatch: %v", err)
	}
}

// TestConfigValidate pins the descriptive rejection of unrunnable configs.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config (all defaults) rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"unknown-strategy", func(c *Config) { c.Strategy = "dqn" }, "unknown strategy"},
		{"negative-agents", func(c *Config) { c.Agents = -1 }, "Agents"},
		{"negative-workers", func(c *Config) { c.WorkersPerAgent = -2 }, "WorkersPerAgent"},
		{"negative-horizon", func(c *Config) { c.Horizon = -5 }, "Horizon"},
		{"negative-walltime", func(c *Config) { c.Walltime = -1 }, "Walltime"},
		{"fidelity-above-one", func(c *Config) { c.Eval.Fidelity = 2 }, "Fidelity"},
		{"nan-horizon", func(c *Config) { c.Horizon = math.NaN() }, "Horizon"},
		{"nan-walltime", func(c *Config) { c.Walltime = math.NaN() }, "Walltime"},
		{"nan-fidelity", func(c *Config) { c.Eval.Fidelity = math.NaN() }, "Fidelity"},
		{"machine-too-large", func(c *Config) { c.Agents, c.WorkersPerAgent = 100000, 100000 }, "at most 16384"},
		{"machine-one-over", func(c *Config) { c.Agents, c.WorkersPerAgent = 1<<7+1, 1<<7 }, "at most 16384"},
		{"machine-product-overflows", func(c *Config) { c.Agents, c.WorkersPerAgent = math.MaxInt, math.MaxInt }, "at most 16384"},
		{"machine-too-large-default-agents", func(c *Config) { c.Agents, c.WorkersPerAgent = 0, 1000 }, "21 × 1000"},
	}
	for _, c := range cases {
		cfg := smallCfg(A3C, 1)
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// The largest machine allowed validates, however it is split.
	for _, nm := range [][2]int{{1 << 14, 1}, {1, 1 << 14}, {1 << 7, 1 << 7}} {
		cfg := smallCfg(A3C, 1)
		cfg.Agents, cfg.WorkersPerAgent = nm[0], nm[1]
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d × %d nodes rejected: %v", nm[0], nm[1], err)
		}
	}
	// Allocate validates before it builds anything: a bad fidelity is an
	// error naming the field, not evaluator.New's panic.
	bad := smallCfg(A3C, 1)
	bad.Eval.Fidelity = 2
	if _, _, err := Allocate(nil, nil, bad, nil, nil); err == nil || !strings.Contains(err.Error(), "Fidelity") {
		t.Fatalf("Allocate with Fidelity 2: %v", err)
	}
}
