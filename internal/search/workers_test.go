package search

import (
	"fmt"
	"path/filepath"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/fsim"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// chainWorkers is chainWalltimeTraced plus the chainStats bookkeeping of
// chainWalltime: one recorder follows the allocation chain through on-disk
// checkpoint files, and the stats prove the cuts landed mid-round and with
// in-flight tasks — the hard cases for the worker-pool drain.
func chainWorkers(t *testing.T, cfg Config, benchSeed uint64) (*Log, []trace.Event, chainStats) {
	t.Helper()
	dir := t.TempDir()
	sp := space.NewComboSmall()
	rec := trace.NewRecorder(0)
	log, ck, err := Allocate(candle.NewCombo(candle.Config{Seed: benchSeed}), sp, cfg, nil, rec)
	st := chainStats{allocations: 1}
	for err == nil && ck != nil {
		for i := range ck.Agents {
			if ck.Agents[i].Pending > 0 {
				st.midRound = true
			}
		}
		if len(ck.Eval.Inflight) > 0 {
			st.inflight = true
		}
		path := filepath.Join(dir, fmt.Sprintf("alloc-%03d.ckpt", st.allocations))
		if werr := ck.WriteFileFS(fsim.OS, path); werr != nil {
			t.Fatalf("write checkpoint: %v", werr)
		}
		loaded, lerr := LoadCheckpointFS(fsim.OS, path)
		if lerr != nil {
			t.Fatalf("load checkpoint: %v", lerr)
		}
		log, ck, err = Allocate(candle.NewCombo(candle.Config{Seed: benchSeed}), sp, Config{}, loaded, rec)
		st.allocations++
	}
	if err != nil {
		t.Fatalf("allocation chain: %v", err)
	}
	if rec.Dropped() > 0 {
		t.Fatalf("trace ring overflowed: %d events dropped", rec.Dropped())
	}
	return log, rec.Events(), st
}

// TestShortWorkerPoolAllStrategies extends the Workers=8 ↔ Workers=1
// byte-identity bar to the two strategies the traced cross-check above does
// not cover, so all four strategies are pinned.
func TestShortWorkerPoolAllStrategies(t *testing.T) {
	for _, c := range []struct {
		strategy string
		seed     uint64
	}{{RDM, 85}, {EVO, 86}} {
		c := c
		t.Run(c.strategy, func(t *testing.T) {
			cfg := equivCfg(c.strategy, c.seed)
			cfg.Eval.Workers = 1
			plain := Run(candle.NewCombo(candle.Config{Seed: c.seed}), space.NewComboSmall(), cfg)
			cfg.Eval.Workers = 8
			pooled := Run(candle.NewCombo(candle.Config{Seed: c.seed}), space.NewComboSmall(), cfg)
			pooled.Config.Eval.Workers = 1
			diffJSON(t, c.strategy, logJSON(t, plain), logJSON(t, pooled))
		})
	}
}

// TestShortWorkerPoolDeterminism is the worker-pool tentpole's acceptance
// test: a short A2C and A3C search under the aggressive fault model must
// produce byte-identical search.Log JSON and equal raw trace digests at
// Workers ∈ {1, 2, 8} (evaluator's TestPoolTraceEvents pins that Workers
// != 1 really engages the pool), and the Workers=8 run chained across
// mid-round checkpoint/resume cuts must still match the uninterrupted
// Workers=1 run. Eval.Workers is the only normalized config field —
// everything else is compared raw.
func TestShortWorkerPoolDeterminism(t *testing.T) {
	for _, c := range []struct {
		strategy string
		seed     uint64
	}{{A2C, 83}, {A3C, 84}} {
		c := c
		t.Run(c.strategy, func(t *testing.T) {
			var baseJSON []byte
			var baseEvents []trace.Event
			for _, workers := range []int{1, 2, 8} {
				cfg := equivCfg(c.strategy, c.seed)
				cfg.Eval.Workers = workers
				log, events := runTraced(t, cfg, c.seed)
				log.Config.Eval.Workers = 0 // the only intended difference
				js := logJSON(t, log)
				if workers == 1 {
					baseJSON, baseEvents = js, events
					continue
				}
				diffJSON(t, fmt.Sprintf("Workers=%d log", workers), baseJSON, js)
				diffEvents(t, fmt.Sprintf("Workers=%d trace", workers), baseEvents, events)
				if trace.Digest(events) != trace.Digest(baseEvents) {
					t.Fatalf("Workers=%d trace digest differs", workers)
				}
			}

			// The pooled machine across mid-round checkpoint/resume cuts must
			// still reproduce the uninterrupted serial run byte-for-byte.
			chained := equivCfg(c.strategy, c.seed)
			chained.Eval.Workers = 8
			chained.Walltime = 217 // odd boundary: cuts land mid-round
			logC, evC, st := chainWorkers(t, chained, c.seed)
			if st.allocations < 3 {
				t.Fatalf("walltime %g produced only %d allocations", chained.Walltime, st.allocations)
			}
			if !st.midRound {
				t.Fatal("no checkpoint cut an agent mid-round — the test lost its hard case")
			}
			if !st.inflight {
				t.Fatal("no checkpoint carried in-flight tasks — the test lost its hard case")
			}
			logC.Config.Eval.Workers = 0
			logC.Config.Walltime = 0
			diffJSON(t, "chained Workers=8 log", baseJSON, logJSON(t, logC))
			core := trace.WithoutCat(evC, trace.CatCkpt)
			diffEvents(t, "chained Workers=8 trace", baseEvents, core)
			if trace.Digest(core) != trace.Digest(baseEvents) {
				t.Fatal("chained pooled trace digest differs after stripping ckpt marks")
			}
		})
	}
}
