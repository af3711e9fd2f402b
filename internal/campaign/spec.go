// Package campaign hosts long-lived NAS search campaigns: walltime-chained
// sequences of search allocations driven through the checkpoint machinery
// of internal/search, supervised so that process kills, panics, and bad
// HTTP clients never lose more than the in-flight allocation and never
// change a single byte of the final search log.
//
// The package splits into four layers, each with its own robustness story
// (DESIGN.md §8):
//
//   - Spec (this file): the JSON campaign description submitted by
//     clients. Decoding is strict — unknown fields, trailing data, and
//     out-of-range values are rejected with field-level errors — so a
//     malformed submission is a 4xx, never a wedged runner.
//   - Store: the crash-consistent on-disk record of every campaign
//     (ckpt-framed meta file, search checkpoint, final log), written via
//     atomic checksummed files with directory fsync. kill -9 at any byte
//     loses at most the in-flight allocation.
//   - Manager: the supervisor. Each campaign runs in its own goroutine,
//     one allocation at a time, persisting the checkpoint at every
//     walltime boundary; panics are recovered and restarted with capped
//     exponential backoff (the Balsam retry idiom), terminal failures park
//     the campaign in FAILED without touching its siblings.
//   - Server: the defensive net/http JSON API (body size limits,
//     per-request timeouts, strict decoding, idempotent state
//     transitions).
//
// Determinism is the acceptance bar: a campaign killed at any point and
// restarted replays to a final log byte-identical to the same
// (space, budget, strategy, seed) run via cmd/nas-search.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"nasgo/internal/candle"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

// Spec is a client-submitted campaign description. The zero value of every
// optional field selects the same documented default as the corresponding
// nas-search flag, so a spec and a CLI invocation with equal settings run
// byte-identical searches.
type Spec struct {
	// Name is an optional human label shown in listings.
	Name string `json:"name,omitempty"`
	// Bench is the CANDLE benchmark: Combo, Uno, or NT3.
	Bench string `json:"bench"`
	// Space is the search-space size, "small" (default) or "large",
	// resolved against the benchmark exactly like nas-search -space.
	Space string `json:"space,omitempty"`
	// Strategy is a3c (default), a2c, rdm, or evo.
	Strategy string `json:"strategy,omitempty"`
	// Agents is the number of search agents (0 = the paper's 21).
	Agents int `json:"agents,omitempty"`
	// Workers is the architectures per agent per round (0 = the paper's 11).
	Workers int `json:"workers,omitempty"`
	// Horizon is the virtual wall-clock budget in seconds. Required: a
	// campaign without a budget would run for the paper default silently.
	Horizon float64 `json:"horizon"`
	// Walltime is the virtual seconds per scheduler allocation — the
	// checkpoint cadence. 0 derives Horizon/4 so every campaign is
	// restartable by default.
	Walltime float64 `json:"walltime,omitempty"`
	// Seed is the root seed; campaigns are deterministic in it.
	Seed uint64 `json:"seed,omitempty"`
	// Fidelity is the reward-estimation training-data fraction
	// (0 = benchmark default).
	Fidelity float64 `json:"fidelity,omitempty"`
	// EvalWorkers is the host-side concurrent-training pool size
	// (0 = GOMAXPROCS; results are bit-identical at any setting).
	EvalWorkers int `json:"evalWorkers,omitempty"`
	// RealEpochs and RealBatchSize override the scaled-training budget
	// (0 = defaults). Exposed so integration tests and load drills can
	// submit fast campaigns; production campaigns leave them 0.
	RealEpochs    int `json:"realEpochs,omitempty"`
	RealBatchSize int `json:"realBatchSize,omitempty"`
}

// MaxSpecBytes bounds a campaign-spec request body. A legitimate spec is
// well under 1 KiB; the HTTP layer rejects anything larger than this
// before decoding.
const MaxSpecBytes = 64 << 10

// DecodeSpec reads exactly one JSON spec from r, strictly: unknown fields,
// trailing data, type mismatches, and validation failures are all errors.
// It never panics on any input (FuzzDecodeSpec pins this).
func DecodeSpec(r io.Reader) (*Spec, error) {
	// Limit one byte past MaxSpecBytes: an HTTP MaxBytesReader stacked
	// under us (capped at MaxSpecBytes) then fires its 413 before this
	// limit truncates, while direct callers still get a bounded read.
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: decode spec: %w", err)
	}
	// A second Decode must hit EOF: trailing JSON values or garbage mean
	// the client sent something other than one spec.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("campaign: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate rejects specs that cannot run, with errors naming the field and
// the accepted values. It resolves the benchmark name and space (generating
// no dataset: that is Build's), so a spec that validates is guaranteed to start.
func (s *Spec) Validate() error {
	if len(s.Name) > 128 {
		return fmt.Errorf("campaign: name longer than 128 bytes")
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("campaign: horizon = %g, want > 0 virtual seconds", s.Horizon)
	}
	if s.Walltime < 0 {
		return fmt.Errorf("campaign: walltime = %g, want >= 0 virtual seconds (0 derives horizon/4)", s.Walltime)
	}
	if s.Walltime > s.Horizon {
		return fmt.Errorf("campaign: walltime %g exceeds horizon %g", s.Walltime, s.Horizon)
	}
	if s.RealEpochs < 0 || s.RealBatchSize < 0 {
		return fmt.Errorf("campaign: realEpochs/realBatchSize must be >= 0")
	}
	switch s.Space {
	case "", "small", "large":
	default:
		return fmt.Errorf("campaign: unknown space size %q (want small or large)", s.Space)
	}
	if _, err := candle.SpaceFor(s.Bench, s.spaceSize()); err != nil {
		return err
	}
	return s.SearchConfig().Validate()
}

// Build generates the spec's benchmark dataset and resolves its search space.
func (s *Spec) Build() (*candle.Benchmark, *space.Space, error) {
	bench, err := candle.ByName(s.Bench, candle.Config{Seed: s.Seed})
	if err != nil {
		return nil, nil, err
	}
	sp, err := bench.Space(s.spaceSize())
	if err != nil {
		return nil, nil, err
	}
	return bench, sp, nil
}

func (s *Spec) spaceSize() string {
	if s.Space == "" {
		return "small"
	}
	return s.Space
}

// SearchConfig maps the spec onto a search configuration. The mapping is
// pure: the same spec always yields the same config, so a campaign replay
// — or the equivalent nas-search invocation — runs the identical search.
func (s *Spec) SearchConfig() search.Config {
	walltime := s.Walltime
	if walltime == 0 {
		walltime = s.Horizon / 4
	}
	cfg := search.Config{
		Strategy:        s.Strategy,
		Agents:          s.Agents,
		WorkersPerAgent: s.Workers,
		Horizon:         s.Horizon,
		Walltime:        walltime,
		Seed:            s.Seed,
	}
	cfg.Eval.Fidelity = s.Fidelity
	cfg.Eval.Workers = s.EvalWorkers
	cfg.Eval.RealEpochs = s.RealEpochs
	cfg.Eval.RealBatchSize = s.RealBatchSize
	return cfg
}
