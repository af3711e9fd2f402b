// Command nas-bench regenerates the paper's evaluation artifacts: every
// figure (4–13) and Table 1, at a chosen scale preset.
//
// Examples:
//
//	nas-bench -exp table1 -scale quick
//	nas-bench -exp fig9 -scale default
//	nas-bench -exp all -scale quick -out results/
//	nas-bench -exp restart -walltime 1200 -checkpoint results/ckpt
//	nas-bench -exp restart -trace results/restart.trace.jsonl
//	nas-bench -exp workers -workers 0  # time the evaluator pool at GOMAXPROCS
//	nas-bench -exp simbench            # DES-core throughput: events/sec, bytes/event
//	nas-bench -exp tournament          # 4 strategies × common seed set on the tabular benchmark
//	nas-bench -exp tournament -cpuprofile cpu.prof  # then: go tool pprof -top cpu.prof
//	nas-bench -torture -scale quick  # power-cut every fs op of a campaign
//
// Search runs are memoized in-process, so "-exp all" shares runs between
// figures exactly as the paper's campaign did. The restart experiment
// splits one search across walltime-bounded allocations chained through
// checkpoint files; continuing a saved search checkpoint to completion is
// nas-search's job (nas-search -resume ck -checkpoint ck -allocations 0).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"nasgo"
	"nasgo/internal/campaign"
	"nasgo/internal/experiments"
)

// notifyStop returns a poll for SIGINT/SIGTERM. The experiment loop checks
// it between experiments, so a signal never loses completed work.
func notifyStop() func() bool {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return func() bool {
		select {
		case s := <-sig:
			fmt.Printf("\n%v: stopping at the next safe boundary\n", s)
			return true
		default:
			return false
		}
	}
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (fig4..fig13, table1, faults, restart, workers, simbench, tournament, ...) or 'all'")
		scale    = flag.String("scale", "quick", "scale preset: quick, default, or paper")
		workers  = flag.Int("workers", 1, "concurrent reward-estimation trainings on the host (0 = GOMAXPROCS, 1 = serial); results are bit-identical at any setting")
		out      = flag.String("out", "bench_results", "write each rendering to <out>/<exp>.txt ('' disables)")
		walltime = flag.Float64("walltime", 0, "restart experiment: virtual seconds per allocation (0 derives a third of the run)")
		ckptDir  = flag.String("checkpoint", "", "restart experiment: keep the chain's checkpoint files in this directory")
		tracePth = flag.String("trace", "", "record the chained run's event trace as JSONL (only with -exp restart)")
		torture  = flag.Bool("torture", false, "crash-point torture: simulate a power cut at every mutating filesystem op of a campaign, honest and fsync-lying, and verify recovery (skips -exp)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof); results are unaffected")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of nas-bench:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
on-signal: SIGINT/SIGTERM stops at the next safe boundary — after the
current experiment; rerun with the same flags to regenerate the rest.
`)
	}
	flag.Parse()
	stopRequested := notifyStop()
	if *cpuProf != "" {
		// The profiler only observes — nothing an experiment computes or
		// renders reads it. A run that ends in log.Fatal leaves the file
		// truncated.
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}

	if *torture {
		runTorture(*scale, *out)
		return
	}
	if *tracePth != "" && *exp != "restart" {
		log.Fatal("-trace requires -exp restart")
	}

	sc, err := nasgo.ExperimentScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	sc.EvalWorkers = *workers
	ids := []string{*exp}
	if *exp == "all" {
		ids = nasgo.ExperimentNames()
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for n, id := range ids {
		if stopRequested() {
			fmt.Printf("stopped before %s (%d/%d experiments done); rerun to regenerate the rest\n",
				id, n, len(ids))
			return
		}
		start := time.Now()
		var text string
		if id == "restart" && (*walltime > 0 || *ckptDir != "" || *tracePth != "") {
			text = experiments.RestartWith(sc, experiments.RestartOpts{
				Walltime: *walltime, CheckpointDir: *ckptDir, TracePath: *tracePth,
			}).Render()
			if *tracePth != "" {
				fmt.Printf("chained-run trace written to %s\n", *tracePth)
			}
		} else {
			text, err = nasgo.RenderExperiment(id, sc)
			if err != nil {
				log.Fatal(err)
			}
		}
		banner := fmt.Sprintf("==== %s (scale=%s, %s) ", id, *scale, time.Since(start).Round(time.Second))
		fmt.Printf("%s%s\n%s\n", banner, strings.Repeat("=", max(0, 74-len(banner))), text)
		if *out != "" {
			path := filepath.Join(*out, id+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// runTorture enumerates a simulated power cut at every mutating filesystem
// operation of a small deterministic campaign (DESIGN.md §13): record the
// campaign once over the in-memory filesystem, replay its operation tape
// into a cut at each index, reopen the surviving bytes, and resume —
// asserting old-or-new recovery and a byte-identical final log at every
// point, then repeating the sweep with fsync-lying storage. The report is
// written to <out>/torture.txt; any violated invariant is fatal.
func runTorture(scale, out string) {
	spec := campaign.Spec{
		Bench:         "Combo",
		Strategy:      "a2c",
		Agents:        2,
		Workers:       2,
		Horizon:       400,
		Walltime:      100,
		Seed:          99,
		RealEpochs:    1,
		RealBatchSize: 64,
	}
	// Larger presets stretch the walltime chain (more allocations = more
	// crash points); the per-allocation work stays scaled-down.
	switch scale {
	case "default":
		spec.Horizon = 800
	case "paper":
		spec.Horizon = 1600
	}
	start := time.Now()
	rep, err := campaign.TortureCampaign(spec, campaign.TortureOptions{
		Opts: campaign.Options{
			BackoffBase: time.Millisecond,
			BackoffCap:  4 * time.Millisecond,
			Logf:        log.Printf,
		},
		Lies: true,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("torture: invariant violated: %v", err)
	}
	repJSON, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		log.Fatal(err)
	}
	text := fmt.Sprintf(`crash-point torture: all invariants held (scale=%s, %s)

%d-op tape, %d crash points enumerated twice (honest + fsync-lying disk).
Every cut left a store that reopened with committed state intact, and every
resume replayed to a final log byte-identical to the uninterrupted run.
%d distinct surviving images (%d live resumes, the rest memoized);
%d cuts predate the first durable meta; %d lying-disk cuts were detected
and rejected, %d still resumed identically.

%s
`, scale, time.Since(start).Round(time.Second),
		rep.TapeLen, rep.CrashPoints, rep.DistinctImages, rep.LiveResumes,
		rep.EmptyStores, rep.LieUnreadable, rep.LieResumed, repJSON)
	fmt.Print(text)
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(out, "torture.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", path)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
