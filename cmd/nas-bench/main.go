// Command nas-bench regenerates the paper's evaluation artifacts — every
// figure (4–13), Table 1, the ablations and the infrastructure experiments —
// at a chosen scale preset. It is the only harness: one loop over the
// experiment registry (internal/experiments), one <out>/<id>.txt per id.
//
//	nas-bench -exp all -scale quick      # the whole campaign, in one process
//	nas-bench -exp fig9 -scale default -out results/
//	nas-bench -exp torture               # power-cut every fs op of a campaign
//	nas-bench -exp tournament -cpuprofile cpu.prof  # then: go tool pprof -top cpu.prof
//	nas-bench -exp tournament -memprofile mem.prof  # then: go tool pprof -sample_index=alloc_space -top mem.prof
//	nas-bench -exp bogus                 # the error lists every valid id
//
// Search runs are memoized in-process, so "-exp all" shares runs between
// figures exactly as the paper's campaign did. Reward estimations train on
// GOMAXPROCS host cores; results are bit-identical at any width, and
// GOMAXPROCS=1 forces serial. Chaining any search across walltime-bounded
// allocations by hand is nas-search's job (-walltime W -allocations 0
// -checkpoint F -trace T).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nasgo"
	"nasgo/internal/prof"
)

func main() {
	ids := nasgo.ExperimentNames()
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
		scale    = flag.String("scale", "quick", "scale preset: quick, default, or paper")
		out      = flag.String("out", "bench_results", "write each rendering to <out>/<exp>.txt ('' disables)")
		profiles = prof.Register(flag.CommandLine)
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
	// The loop checks for SIGINT/SIGTERM between experiments, so a signal
	// never loses completed work.
	stop, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	stopProf, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	sc, err := nasgo.ExperimentScaleByName(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if *exp != "all" {
		ids = []string{*exp}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for n, id := range ids {
		if stop.Err() != nil {
			fmt.Printf("\nsignal: stopped before %s (%d/%d experiments done); rerun to regenerate the rest\n", id, n, len(ids))
			return
		}
		start := time.Now()
		text, err := nasgo.RenderExperiment(id, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== %s (scale=%s, %s) ====\n%s\n", id, *scale, time.Since(start).Round(time.Second), text)
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, id+".txt"), []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}
