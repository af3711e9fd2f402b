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
	// MaxTrain, when > 0, stops the session after training that many new
	// architectures, leaving a durable resumable WAL — the kill/resume
	// tests' deterministic knob. 0 builds to completion.
	MaxTrain int
}

// BuildReport summarizes one build session.
type BuildReport struct {
	// Total is the sub-space cardinality; Recovered the records served by
	// the durable WAL or a finished artifact (never retrained); Trained the
	// records this session trained.
	Total, Recovered, Trained int
	// TablePath is the artifact location; Done reports it exists and is
	// valid (false after a MaxTrain-bounded session).
	TablePath string
	Done      bool
}

// Build enumerates the sub-space and trains every architecture once,
// journaling each record to the WAL and finalizing the complete record set
// into the immutable table artifact. Killed at ANY point — power cut
// included — a re-run resumes from the last durable record without
// retraining it, and the finalized artifact is byte-identical to an
// uninterrupted build's (training is deterministic in BenchSeed, and
// records carry nothing timeline-dependent).
//
// The recovery policy — valid artifact ends the build, damaged artifact is
// quarantined and rebuilt from the WAL, transient I/O aborts retryable — is
// openJournal's.
func Build(cfg BuildConfig) (*BuildReport, error) {
	if cfg.Eval.BenchSeed == 0 {
		return nil, fmt.Errorf("nasbench: build requires benchmark mode (Eval.BenchSeed != 0)")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("nasbench: build needs a directory")
	}
	fsys := orOS(cfg.FS)
	total, err := cfg.Space.EnumerateSize(maxEnumerate)
	if err != nil {
		return nil, err
	}
	tablePath := filepath.Join(cfg.Dir, TableFile)
	rep := &BuildReport{Total: total, TablePath: tablePath}

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
		return nil, err
	}
	if done != nil {
		rep.Recovered, rep.Done = total, true
		return rep, nil
	}
	recs := j.units
	for i, rec := range recs {
		if want := cfg.Space.Hash(cfg.Space.ChoicesAt(i)); rec.Key != want {
			return nil, fmt.Errorf("nasbench: wal record %d keys %s, but %s enumerates %s there — wrong space or seed",
				i, rec.Key, cfg.Space.Name, want)
		}
	}
	rep.Recovered = len(recs)

	// Train the remainder, one durable WAL record per architecture.
	for i := len(recs); i < total && (cfg.MaxTrain <= 0 || rep.Trained < cfg.MaxTrain); i++ {
		rec := buildRecord(ev, cfg.Space, i)
		if err := j.append(rec); err != nil {
			j.close()
			return nil, err
		}
		recs = append(recs, rec)
		rep.Trained++
	}
	if err := j.close(); err != nil {
		return nil, err
	}
	if len(recs) < total {
		return rep, nil // MaxTrain-bounded session; resumable
	}

	// Finalize: atomic artifact, then the WAL is redundant.
	if err := WriteTableFS(fsys, tablePath, &Table{Meta: meta, Records: recs}); err != nil {
		return nil, err
	}
	if err := removeSegments(fsys, cfg.Dir); err != nil {
		return nil, err
	}
	rep.Done = true
	return rep, nil
}

// orOS defaults a config's nil filesystem to the real one.
func orOS(fsys fsim.FS) fsim.FS {
	if fsys == nil {
		return fsim.OS
	}
	return fsys
}

// buildRecord trains enumeration index i into its table record.
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

// BuildOrLoad is the memoizing entry point experiments use: a finished
// artifact loads instantly; anything else builds (resuming a durable WAL)
// and then loads.
func BuildOrLoad(cfg BuildConfig) (*Table, *BuildReport, error) {
	rep, err := Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if !rep.Done {
		return nil, rep, fmt.Errorf("nasbench: build of %s stopped at %d/%d records (MaxTrain bound)",
			cfg.Dir, rep.Recovered+rep.Trained, rep.Total)
	}
	t, err := ReadTableFS(orOS(cfg.FS), rep.TablePath)
	if err != nil {
		return nil, nil, err
	}
	return t, rep, nil
}
