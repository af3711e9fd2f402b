package evaluator

import (
	"strings"
	"testing"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/hpc"
	"nasgo/internal/space"
)

// faultSetup builds an evaluator over a fault-capable service so tests can
// script node outages via FailNode/RepairNode.
func faultSetup(t *testing.T, nodes int, opts balsam.Options, cfg Config) (*hpc.Sim, *balsam.Service, *Evaluator, *space.Space) {
	t.Helper()
	sim := hpc.NewSim()
	service := balsam.NewServiceWithOptions(sim, nodes, opts)
	bench := candle.NewCombo(candle.Config{Seed: 1})
	sp := space.NewComboSmall()
	return sim, service, New(sim, service, bench, sp, cfg), sp
}

func TestCompileErrorBecomesFailedResult(t *testing.T) {
	sim, ev, sp := comboSetup(t, Config{Seed: 30})
	bad := make([]int, sp.NumDecisions())
	bad[0] = 9999 // out-of-range choice: compile must fail, not panic
	var res *Result
	ev.Submit(0, bad, func(r *Result) { res = r })
	sim.RunAll()
	if res == nil {
		t.Fatal("no result delivered for malformed architecture")
	}
	if !res.Failed {
		t.Fatal("compile error not marked Failed")
	}
	if !strings.Contains(res.Err, "compile") {
		t.Fatalf("Err %q does not mention compile", res.Err)
	}
	if res.Reward != 0 || res.Attempts != 0 {
		t.Fatalf("failed result reward %g attempts %d, want 0/0", res.Reward, res.Attempts)
	}
	// Compile failures are never cached: resubmission fails again, fresh.
	var res2 *Result
	ev.Submit(0, bad, func(r *Result) { res2 = r })
	sim.RunAll()
	if res2 == nil || !res2.Failed || res2.Cached {
		t.Fatalf("resubmitted malformed arch: %+v", res2)
	}
	if n := cachedIn(ev); n != 0 {
		t.Fatalf("%d cached results in Trace, want 0", n)
	}
}

func TestAttemptsRecordedOnSuccess(t *testing.T) {
	sim, _, ev, sp := faultSetup(t, 4, balsam.Options{}, Config{Seed: 31})
	var res *Result
	ev.Submit(0, denseChoices(sp), func(r *Result) { res = r })
	sim.RunAll()
	if res.Attempts != 1 {
		t.Fatalf("fault-free attempts %d, want 1", res.Attempts)
	}
	if res.Failed || res.Err != "" {
		t.Fatalf("fault-free result marked failed: %+v", res)
	}
}

// TestRetrySucceedsAfterNodeFailure kills the first attempt; the retry must
// run the same virtual-duration plan and deliver the same reward the
// fault-free run would have.
func TestRetrySucceedsAfterNodeFailure(t *testing.T) {
	// Fault-free reference.
	simRef, evRef, spRef := comboSetup(t, Config{Seed: 32})
	var ref *Result
	evRef.Submit(0, denseChoices(spRef), func(r *Result) { ref = r })
	simRef.RunAll()

	sim, service, ev, sp := faultSetup(t, 1, balsam.Options{}, Config{Seed: 32})
	var res *Result
	ev.Submit(0, denseChoices(sp), func(r *Result) { res = r })
	sim.At(1, func() { service.FailNode(0) })
	sim.At(2, func() { service.RepairNode(0) })
	sim.RunAll()
	if res == nil || res.Failed {
		t.Fatalf("retried estimation failed: %+v", res)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", res.Attempts)
	}
	if res.Reward != ref.Reward {
		t.Fatalf("retry reward %g != fault-free reward %g", res.Reward, ref.Reward)
	}
	if res.Duration != ref.Duration {
		t.Fatalf("retry duration %g != fault-free plan %g", res.Duration, ref.Duration)
	}
	// Retry restarts from scratch: finish = backoff(15) + full duration.
	if want := 16 + ref.Duration; res.FinishTime != want {
		t.Fatalf("finish time %g, want %g", res.FinishTime, want)
	}
	if service.Retries() != 1 {
		t.Fatalf("service retries %d, want 1", service.Retries())
	}
}

// TestFailedEstimationNotCached exhausts MaxRetries so the job goes
// terminal FAILED; the result must be Failed with zero reward, and a later
// resubmission must run fresh (no cache hit) and succeed.
func TestFailedEstimationNotCached(t *testing.T) {
	sim, service, ev, sp := faultSetup(t, 1, balsam.Options{MaxRetries: 1}, Config{Seed: 33})
	choices := denseChoices(sp)
	var failed, fresh *Result
	failures := 0
	countFailed := func(r *Result) {
		if r.Failed {
			failures++
		}
	}
	ev.Submit(0, choices, func(r *Result) {
		failed = r
		countFailed(r)
		// Resubmit the same architecture after the terminal failure.
		ev.Submit(0, choices, func(r2 *Result) { fresh = r2; countFailed(r2) })
	})
	// Attempt 1 starts at 0; kill at 1; backoff 15 ⇒ requeue at 16.
	sim.At(1, func() { service.FailNode(0) })
	sim.At(2, func() { service.RepairNode(0) })
	// Attempt 2 starts at 16; kill at 17 ⇒ Attempts(2) > MaxRetries(1) ⇒ FAILED.
	sim.At(17, func() { service.FailNode(0) })
	sim.At(18, func() { service.RepairNode(0) })
	sim.RunAll()
	if failed == nil || !failed.Failed {
		t.Fatalf("estimation did not fail terminally: %+v", failed)
	}
	if failed.Reward != 0 || failed.Attempts != 2 {
		t.Fatalf("failed result reward %g attempts %d, want 0/2", failed.Reward, failed.Attempts)
	}
	if failed.Err == "" {
		t.Fatal("failed result has empty Err")
	}
	if fresh == nil {
		t.Fatal("resubmission never completed")
	}
	if fresh.Cached {
		t.Fatal("failed estimation was served from cache")
	}
	if fresh.Failed || fresh.Reward == 0 {
		t.Fatalf("fresh resubmission should succeed: %+v", fresh)
	}
	if n := cachedIn(ev); n != 0 {
		t.Fatalf("%d cached results in Trace, want 0", n)
	}
	if failures != 1 {
		t.Fatalf("failed results %d, want 1", failures)
	}
}
