package search

import (
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/hpc"
	"nasgo/internal/space"
)

// faultCfg is smallCfg plus an aggressive fault model: with 9 nodes over a
// 1200 s horizon an MTBF of 400 s injects ~27 node failures. Real training
// is cut to the bone (1 real epoch, large batches): these tests probe the
// execution substrate, not reward quality, and they must stay fast enough
// for scripts/check.sh's race-detector run.
func faultCfg(strategy string, seed uint64) Config {
	cfg := smallCfg(strategy, seed)
	cfg.Faults = hpc.FaultModel{MTBF: 400, MTTR: 120, StragglerProb: 0.1, StragglerSlowdown: 2}
	cfg.Eval.RealEpochs = 1
	cfg.Eval.RealBatchSize = 64
	return cfg
}

// TestShortZeroFaultLogCounts pins the fault-free defaults: a plain run
// must report zero fault activity.
func TestShortZeroFaultLogCounts(t *testing.T) {
	bench := candle.NewCombo(candle.Config{Seed: 40})
	sp := space.NewComboSmall()
	cfg := faultCfg(A3C, 40)
	cfg.Faults = hpc.FaultModel{} // back to the perfect machine
	cfg.Agents = 2
	cfg.WorkersPerAgent = 2
	cfg.Horizon = 900
	log := Run(bench, sp, cfg)
	if log.NodeFailures != 0 || log.Retries != 0 || log.FailedEvals != 0 || log.PartialRounds != 0 {
		t.Fatalf("fault-free run reported fault activity: %+v",
			[]int{log.NodeFailures, log.Retries, log.FailedEvals, log.PartialRounds})
	}
	for _, r := range log.Results {
		if r.Failed {
			t.Fatal("fault-free run produced a failed result")
		}
	}
}

// TestShortFaultSearchA2CNoDeadlock is the tentpole's barrier property: an
// A2C search under heavy node failure must keep completing sync rounds and
// run out its horizon instead of stalling when a round's job dies.
func TestShortFaultSearchA2CNoDeadlock(t *testing.T) {
	bench := candle.NewCombo(candle.Config{Seed: 41})
	sp := space.NewComboSmall()
	cfg := faultCfg(A2C, 41)
	cfg.MaxRetries = -1 // every kill is terminal: maximum barrier stress
	log := Run(bench, sp, cfg)

	if log.NodeFailures == 0 {
		t.Fatal("fault model injected no node failures")
	}
	if len(log.Results) == 0 {
		t.Fatal("no results under faults")
	}
	if log.FailedEvals == 0 {
		t.Fatal("no evaluation ever failed despite terminal kills")
	}
	if log.FailedEvals > log.NodeFailures {
		t.Fatalf("failed evals %d > node failures %d", log.FailedEvals, log.NodeFailures)
	}
	if log.PartialRounds == 0 {
		t.Fatal("no partial rounds recorded despite failed evaluations")
	}
	// The barrier kept cycling: multiple full sync rounds completed, and
	// the search was still producing results in the second half of the run.
	if log.PS.Rounds < 2 {
		t.Fatalf("only %d sync rounds completed — barrier stalled", log.PS.Rounds)
	}
	late := false
	for _, r := range log.Results {
		if r.FinishTime > log.Config.Horizon/2 {
			late = true
			break
		}
	}
	if !late {
		t.Fatal("no results in the second half of the horizon — search stalled")
	}
}

// TestShortFaultRetriesRecover: with retries enabled most kills recover, so
// the run records retries and the vast majority of estimations still
// succeed.
func TestShortFaultRetriesRecover(t *testing.T) {
	bench := candle.NewCombo(candle.Config{Seed: 42})
	sp := space.NewComboSmall()
	log := Run(bench, sp, faultCfg(A3C, 42))
	if log.NodeFailures == 0 {
		t.Fatal("no node failures injected")
	}
	if log.Retries == 0 {
		t.Fatal("no retries despite node failures on a saturated pool")
	}
	if log.FailedEvals > log.Retries {
		t.Fatalf("failed evals %d exceed retries %d with MaxRetries=3", log.FailedEvals, log.Retries)
	}
	ok := 0
	for _, r := range log.Results {
		if !r.Failed {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("every estimation failed")
	}
	// TopK never surfaces failed estimations.
	for _, r := range log.TopK(100) {
		if r.Failed {
			t.Fatal("TopK returned a failed estimation")
		}
	}
}
