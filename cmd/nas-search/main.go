// Command nas-search runs one multi-agent NAS search on a CANDLE benchmark
// and prints its summary, reward trajectory, and top architectures. The
// full trace can be saved as JSON for nas-analytics and nas-posttrain.
//
// With -walltime the run is split into scheduler allocations of virtual
// seconds: each boundary writes a crash-consistent checkpoint, -allocations
// chains several in one process, and a later invocation continues with
// -resume, reproducing the uninterrupted run bit-for-bit. SIGINT/SIGTERM
// stops the chain at the next walltime boundary — the checkpoint is already
// on disk, so nothing is lost.
//
// Examples:
//
//	nas-search -bench Combo -space small -strategy a3c \
//	    -agents 8 -workers 5 -horizon 10800 -out combo-a3c.json
//	nas-search -bench Combo -walltime 3600 -checkpoint combo.ckpt
//	nas-search -resume combo.ckpt -checkpoint combo.ckpt -allocations 0
//	nas-search -bench Combo -trace combo.trace.jsonl -trace-chrome combo.trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nasgo"
	"nasgo/internal/analytics"
	"nasgo/internal/fsim"
	"nasgo/internal/report"
	"nasgo/internal/trace"
)

// notifyStop registers the graceful-stop signals and returns a poll
// function: true once SIGINT or SIGTERM has arrived. Allocations are pure
// virtual-time compute and cannot be interrupted mid-flight, so the chain
// polls at each walltime boundary — the only cut points where the search
// state is checkpointable.
func notifyStop() func() bool {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return func() bool {
		select {
		case s := <-sig:
			fmt.Printf("\n%v: stopping at the walltime boundary\n", s)
			return true
		default:
			return false
		}
	}
}

func main() {
	var (
		benchName = flag.String("bench", "Combo", "benchmark: Combo, Uno, or NT3")
		spaceSize = flag.String("space", "small", "search space size: small or large")
		strategy  = flag.String("strategy", "a3c", "search strategy: a3c, a2c, rdm, or evo")
		agents    = flag.Int("agents", 8, "number of RL agents (paper: 21)")
		workers   = flag.Int("workers", 5, "architectures per agent per round (paper: 11)")
		horizon   = flag.Float64("horizon", 3*3600, "virtual wall-clock budget in seconds (paper: 21600)")
		fidelity  = flag.Float64("fidelity", 0, "training-data fraction for reward estimation (0 = benchmark default)")
		evalWork  = flag.Int("eval-workers", 0, "concurrent reward-estimation trainings on the host (0 = GOMAXPROCS, the default; 1 = serial); results are bit-identical at any setting")
		seed      = flag.Uint64("seed", 42, "root seed (runs are deterministic in it)")
		topK      = flag.Int("top", 10, "top architectures to print")
		out       = flag.String("out", "", "write the full search log as JSON to this path")
		walltime  = flag.Float64("walltime", 0, "virtual seconds per allocation; 0 runs to completion in one process")
		ckptPath  = flag.String("checkpoint", "nas-search.ckpt", "path for the checkpoint written when -walltime cuts the run")
		resume    = flag.String("resume", "", "continue from a checkpoint written by an earlier -walltime invocation (other search flags are taken from the checkpoint)")
		allocs    = flag.Int("allocations", 1, "walltime allocations to chain in this process (0 or less: chain until the search completes); the checkpoint is rewritten at every boundary")
		tracePath = flag.String("trace", "", "record the run's event trace as JSONL to this path (with -resume, the trace covers the chained allocations)")
		chromeOut = flag.String("trace-chrome", "", "also write the trace in Chrome trace_event JSON (open in Perfetto or chrome://tracing)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of nas-search:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), `
on-signal: SIGINT/SIGTERM stops a -walltime chain at the next walltime-safe
boundary — the checkpoint for every completed allocation is already on disk
(atomic rename + directory fsync), so the run resumes with -resume and
replays bit-for-bit identical to never having been interrupted.
`)
	}
	flag.Parse()
	stopping := notifyStop()

	var rec *nasgo.TraceRecorder
	if *tracePath != "" || *chromeOut != "" {
		rec = nasgo.NewTraceRecorder(0)
	}

	var (
		bench *nasgo.Benchmark
		sp    *nasgo.Space
		cfg   nasgo.SearchConfig
		ck    *nasgo.SearchCheckpoint
		err   error
	)
	if *resume != "" {
		if ck, err = nasgo.LoadSearchCheckpoint(*resume); err != nil {
			log.Fatal(err)
		}
		bench, err = nasgo.NewBenchmark(ck.Bench, nasgo.BenchmarkConfig{Seed: ck.Config.Seed})
		if err != nil {
			log.Fatal(err)
		}
		sp, err = nasgo.NewSpace(ck.SpaceName)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resuming %s on %s/%s from %s: allocation %d, virtual time %.0f s\n",
			strings.ToUpper(ck.Config.Strategy), ck.Bench, ck.SpaceName, *resume, ck.Allocations+1, ck.Now)
	} else {
		bench, err = nasgo.NewBenchmark(*benchName, nasgo.BenchmarkConfig{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		sp, err = bench.Space(*spaceSize)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search space %s: %d decisions, %.4g architectures\n",
			sp.Name, sp.NumDecisions(), sp.Size())

		cfg = nasgo.SearchConfig{
			Strategy:        *strategy,
			Agents:          *agents,
			WorkersPerAgent: *workers,
			Horizon:         *horizon,
			Walltime:        *walltime,
			Seed:            *seed,
		}
		cfg.Eval.Fidelity = *fidelity
		cfg.Eval.Workers = *evalWork
	}

	// Chain allocations in-process: the checkpoint is rewritten at every
	// boundary, so a hard kill anywhere in the chain loses at most the
	// in-flight allocation. The chain ends at completion (always the first
	// allocation without -walltime), at -allocations, or at the first
	// boundary after a SIGINT/SIGTERM.
	var res *nasgo.SearchLog
	for ran := 1; ; ran++ {
		res, ck, err = nasgo.AllocateSearch(bench, sp, cfg, ck, rec)
		if err != nil {
			log.Fatal(err)
		}
		if ck == nil {
			break
		}
		if err := ck.WriteFileFS(fsim.OS, *ckptPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("allocation %d cut at %.0f virtual s: checkpoint written to %s\n",
			ck.Allocations, ck.Now, *ckptPath)
		if (*allocs > 0 && ran >= *allocs) || stopping() {
			fmt.Printf("continue with: nas-search -resume %s -checkpoint %s\n", *ckptPath, *ckptPath)
			break
		}
	}

	if rec != nil {
		writeTrace(rec, *tracePath, *chromeOut)
	}

	cfg = res.Config
	s := analytics.Summarize(res.Results)
	partial := ""
	if ck != nil {
		partial = " [partial allocation]"
	}
	fmt.Printf("\n%s on %s (%d agents × %d workers, %.0f virtual min)%s\n",
		strings.ToUpper(cfg.Strategy), bench.Name, cfg.Agents, cfg.WorkersPerAgent, res.EndTime/60, partial)
	fmt.Printf("evaluations=%d cacheHits=%d unique=%d timeouts=%d converged=%v\n",
		s.Evaluations, s.CacheHits, s.UniqueArchs, s.TimedOut, res.Converged)
	fmt.Printf("best reward (%s) = %.4f, mean = %.4f\n", bench.Metric, s.BestReward, s.MeanReward)

	traj := analytics.Trajectory(res.Results, 300, res.EndTime)
	xs := make([]float64, len(traj))
	best := make([]float64, len(traj))
	for i, p := range traj {
		xs[i] = p.Time / 60
		best[i] = p.Best
	}
	fmt.Println()
	fmt.Print(report.Chart("best reward over time", "time (min)", bench.Metric,
		[]report.Series{{Name: strings.ToUpper(cfg.Strategy), X: xs, Y: best}}, 70, 12))

	fmt.Printf("\ntop %d architectures by estimated reward:\n", *topK)
	rows := make([][]string, 0, *topK)
	for i, r := range res.TopK(*topK) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), report.F(r.Reward), fmt.Sprintf("%d", r.Params),
			fmt.Sprintf("%.0f", r.Duration), fmt.Sprintf("%v", r.TimedOut),
		})
		if i == 0 {
			fmt.Printf("best architecture: %s\n", sp.Describe(r.Choices))
		}
	}
	fmt.Print(report.Table([]string{"rank", "reward", "params(paper)", "eval s", "timeout"}, rows))

	if *out != "" {
		if err := res.WriteJSONFS(fsim.OS, *out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nfull log written to %s\n", *out)
	}
}

// writeTrace saves the recorded event stream and prints its summary.
func writeTrace(rec *nasgo.TraceRecorder, jsonlPath, chromePath string) {
	events := rec.Events()
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Printf("\ntrace ring overflowed: %d oldest events dropped\n", dropped)
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteJSONL(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: %d events written to %s (sha256 %x)\n",
			len(events), jsonlPath, trace.Digest(events))
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace written to %s\n", chromePath)
	}
	fmt.Println()
	fmt.Print(trace.Summarize(events).Format())
}
