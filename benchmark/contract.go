package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
)

// contract is BENCHMARK.json: the workloads, the metrics each pass must
// print, and the bound by which each end-to-end metric may worsen.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func (c *contract) workloadNames() []string {
	var out []string
	for _, w := range c.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// scale sizes the workloads. Only the repetition counts vary between a
// suite run and a contract run; the smoke scale exists for the package's own
// test.
type scale struct {
	// name keys the committed digests: outputs depend on the sizes below.
	name string
	// seconds is the length asked of the measured phase, from which the
	// repetition counts below were derived; recorded in the ledger.
	seconds float64
	// liveReps, rlReps, sweepReps and campaigns count the repetitions of
	// each workload's measured phase: searches of one seed, whole
	// tournaments from one base seed, campaigns on seeds N, N+1, ...
	liveReps, rlReps, sweepReps, campaigns int
	// horizon is the virtual-second budget of the live search and of each
	// campaign; warmHorizon that of the campaign run during set-up.
	horizon, warmHorizon float64
	// micro selects the 117-architecture combo-micro table; otherwise the
	// 9-architecture combo-nano one.
	micro bool
	// rlSeeds and sweepSeeds are the per-strategy seed counts of one
	// tournament repetition.
	rlSeeds, sweepSeeds int
	// estimates caps how many of a workload's architectures the traced
	// pass re-estimates one by one; layerIters scales the direct layer
	// timing loops.
	estimates  int
	layerIters int
}

// What one repetition of each workload costs on the reference host, in
// seconds. --seconds is turned into repetition counts through these
// constants and never through the clock: the work of a run, and the seeds it
// touches, depend on its arguments alone, so a slower build measures the
// same work for longer instead of less work. The suite's default 30 s gives
// 3 / 8 / 48 / 4 repetitions, the contract's 22 s gives 2 / 6 / 35 / 3.
//
// The tournaments are cut small — 12 and 400 searches a repetition — so that
// a run holds many repetitions and its median rate ignores the seconds in
// which a neighbour of this shared host takes the CPU; a median of two or
// three long repetitions moved with every such burst.
const (
	liveRepS     = 10.0
	rlRepS       = 3.6
	sweepRepS    = 0.62
	campaignRepS = 8.0
)

func fullScale(seconds float64) scale {
	reps := func(cost float64) int { return max(1, int(math.Round(seconds/cost))) }
	return scale{name: "full", seconds: seconds,
		liveReps: reps(liveRepS), rlReps: reps(rlRepS), sweepReps: reps(sweepRepS), campaigns: reps(campaignRepS),
		horizon: 1800, warmHorizon: 100, micro: true, rlSeeds: 6, sweepSeeds: 200, estimates: 32, layerIters: 100}
}

var smokeScale = scale{name: "smoke", liveReps: 1, rlReps: 1, sweepReps: 1, campaigns: 1,
	horizon: 90, warmHorizon: 50, micro: false, rlSeeds: 2, sweepSeeds: 2, estimates: 3, layerIters: 5}

const (
	// dataSeed fixes the benchmark data and the table's BenchSeed, so the
	// reward table is one artifact whatever -seed is.
	dataSeed = 42
)

func goldenKey(workload, scale, output string) string {
	return workload + "/" + scale + "/" + output
}

// goldenArch reports whether the committed digests apply: they were
// recorded on amd64, and an architecture that fuses multiply-adds trains to
// different floats.
func goldenArch() bool { return runtime.GOARCH == "amd64" }
