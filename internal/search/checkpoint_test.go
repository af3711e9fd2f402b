package search

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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
	// Allocate validates before it builds anything: a bad fidelity is an
	// error naming the field, not evaluator.New's panic.
	bad := smallCfg(A3C, 1)
	bad.Eval.Fidelity = 2
	if _, _, err := Allocate(nil, nil, bad, nil, nil); err == nil || !strings.Contains(err.Error(), "Fidelity") {
		t.Fatalf("Allocate with Fidelity 2: %v", err)
	}
}
