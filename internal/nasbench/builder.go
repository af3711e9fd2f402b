package nasbench

import (
	"fmt"
	"path/filepath"

	"nasgo/internal/balsam"
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/hpc"
	"nasgo/internal/space"
)

// maxEnumerate caps the sub-space size the builder will enumerate; beyond
// it, tabulation is the wrong tool.
const maxEnumerate = 1 << 16

// BuildConfig parameterizes one build (or resume — the two are the same
// call; the WAL decides where work restarts).
type BuildConfig struct {
	// Bench and Space are the benchmark and the bounded sub-space (built
	// with space.Restrict; Space.EnumerateSize must fit the enumeration cap).
	Bench *candle.Benchmark
	Space *space.Space
	// Eval is the reward-estimation configuration. BenchSeed must be
	// nonzero: a table requires benchmark mode, where every reward depends
	// on the architecture alone.
	Eval evaluator.Config
	// Dir is the artifact directory: WAL segments while building, the
	// TableFile artifact once finalized.
	Dir string
	// FS routes all I/O; nil selects the real filesystem. The builder never
	// touches os.* directly (CLAUDE.md: durability-path I/O goes through
	// the fsim seam).
	FS fsim.FS
}

// BuildReport summarizes one build session.
type BuildReport struct {
	// Total is the sub-space cardinality; Trained the records this session
	// trained. The other Total − Trained came from the durable WAL or a
	// finished artifact, never retrained.
	Total, Trained int
}

// BuildOrLoad returns the finished table of the sub-space: a valid artifact
// loads; otherwise every architecture not yet in the durable WAL is trained
// once, journaled, and the complete record set finalized into the immutable
// table artifact. Killed at ANY point — power cut included — a re-run
// resumes from the last durable record without retraining it, and the
// finalized artifact is byte-identical to an uninterrupted build's
// (training is deterministic in BenchSeed, and records carry nothing
// timeline-dependent).
//
// The recovery policy — valid artifact ends the build, damaged artifact is
// quarantined and rebuilt from the WAL, transient I/O aborts retryable — is
// openJournal's.
func BuildOrLoad(cfg BuildConfig) (*Table, *BuildReport, error) {
	if cfg.Eval.BenchSeed == 0 {
		return nil, nil, fmt.Errorf("nasbench: build requires benchmark mode (Eval.BenchSeed != 0)")
	}
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("nasbench: build needs a directory")
	}
	fsys := orOS(cfg.FS)
	total, err := cfg.Space.EnumerateSize(maxEnumerate)
	if err != nil {
		return nil, nil, err
	}
	tablePath := filepath.Join(cfg.Dir, TableFile)
	rep := &BuildReport{Total: total}

	// The evaluator's defaulted config is the table's binding metadata, so
	// construct it before deciding anything (cheap: no training happens).
	sim := hpc.NewSim()
	ev := evaluator.New(sim, balsam.NewService(sim, 1), cfg.Bench, cfg.Space, cfg.Eval)
	meta := Meta{Bench: cfg.Bench.Name, Space: cfg.Space.Name, Size: total, Eval: bindingConfig(ev.Cfg)}

	// A valid artifact ends the build; otherwise recover the durable record
	// prefix and verify it belongs to this build.
	done, j, err := openJournal(fsys, cfg.Dir, tablePath, total, func() (*Table, error) {
		t, err := ReadTableFS(fsys, tablePath)
		if err == nil && t.Meta != meta {
			return nil, fmt.Errorf("nasbench: %s was built for %s/%s size %d with %+v, not this configuration",
				tablePath, t.Meta.Bench, t.Meta.Space, t.Meta.Size, t.Meta.Eval)
		}
		return t, err
	}, validRecord)
	if err != nil {
		return nil, nil, err
	}
	if done != nil {
		return done, rep, nil
	}
	recs := j.units
	for i, rec := range recs {
		if want := cfg.Space.Hash(cfg.Space.ChoicesAt(i)); rec.Key != want {
			return nil, nil, fmt.Errorf("nasbench: wal record %d keys %s, but %s enumerates %s there — wrong space or seed",
				i, rec.Key, cfg.Space.Name, want)
		}
	}

	// Train the remainder, GOMAXPROCS architectures at a time, one durable
	// WAL record per architecture in enumeration order.
	err = inOrder(len(recs), total, func(i int) (Record, error) {
		return buildRecord(ev, cfg.Space, i), nil
	}, func(rec Record) error {
		if err := j.append(rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		rep.Trained++
		return nil
	})
	if err != nil {
		j.close()
		return nil, nil, err
	}
	if err := j.close(); err != nil {
		return nil, nil, err
	}

	// Finalize: atomic artifact, then the WAL is redundant.
	t := &Table{Meta: meta, Records: recs}
	if err := WriteTableFS(fsys, tablePath, t); err != nil {
		return nil, nil, err
	}
	if err := removeSegments(fsys, cfg.Dir); err != nil {
		return nil, nil, err
	}
	t.index()
	return t, rep, nil
}

// orOS defaults a config's nil filesystem to the real one.
func orOS(fsys fsim.FS) fsim.FS {
	if fsys == nil {
		return fsim.OS
	}
	return fsys
}

// buildRecord trains enumeration index i into its table record. BuildOrLoad
// runs it on several goroutines at once over one evaluator: in benchmark
// mode TabulateMetric reads only the space's mutex-guarded memo, the
// gathered-once subsample and a stream derived from the architecture key.
func buildRecord(ev *evaluator.Evaluator, sp *space.Space, i int) Record {
	choices := sp.ChoicesAt(i)
	rec := Record{Index: i, Key: sp.Hash(choices)}
	metric, plan, err := ev.TabulateMetric(choices)
	if err != nil {
		rec.Failed = true
		rec.Err = err.Error()
		return rec
	}
	rec.Metric = metric
	rec.Attempts = 1
	rec.Duration = plan.Duration
	return rec
}
