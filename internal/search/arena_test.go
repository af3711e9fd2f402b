package search

import (
	"encoding/json"
	"fmt"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// TestShortArenaDeterminism is the zero-allocation tentpole's acceptance
// test at the search level: the workspace arena is a pure memory-reuse
// optimization, so flipping Eval.NoArena must not move a single byte of the
// search log or a single trace event, at Workers ∈ {1, 8}. Eval.NoArena and
// Eval.Workers are the only normalized config fields — everything else is
// compared raw.
func TestShortArenaDeterminism(t *testing.T) {
	const seed = 87
	var baseJSON []byte
	var baseEvents []trace.Event
	for _, tc := range []struct {
		workers int
		noArena bool
	}{{1, false}, {1, true}, {8, false}, {8, true}} {
		name := fmt.Sprintf("Workers=%d NoArena=%v", tc.workers, tc.noArena)
		cfg := equivCfg(A2C, seed)
		cfg.Eval.Workers = tc.workers
		cfg.Eval.NoArena = tc.noArena
		log, events := runTraced(t, cfg, seed)
		log.Config.Eval.Workers = 0 // the only intended differences
		log.Config.Eval.NoArena = false
		js := logJSON(t, log)
		if baseJSON == nil {
			baseJSON, baseEvents = js, events
			continue
		}
		diffJSON(t, name+" log", baseJSON, js)
		diffEvents(t, name+" trace", baseEvents, events)
		if trace.Digest(events) != trace.Digest(baseEvents) {
			t.Fatalf("%s: trace digest differs", name)
		}
	}
}

// TestShortArenaCheckpointEquivalence pins the stronger property at the
// persistence layer: a walltime cut of an arena run and of a no-arena run
// capture identical state (compared as canonical JSON — the gob file itself
// encodes the evaluator caches in randomized map order), and a checkpoint
// written with the arena on resumes bit-for-bit with it off and vice versa,
// reproducing the uninterrupted run's log exactly.
func TestShortArenaCheckpointEquivalence(t *testing.T) {
	const seed = 88
	sp := space.NewComboSmall()
	bench := func() *candle.Benchmark { return candle.NewCombo(candle.Config{Seed: seed}) }
	cut := func(noArena bool) *Checkpoint {
		cfg := equivCfg(A2C, seed)
		cfg.Walltime = 217 // odd boundary: the cut lands mid-round
		cfg.Eval.NoArena = noArena
		_, ck, err := Allocate(bench(), sp, cfg, nil, nil)
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		if ck == nil {
			t.Fatal("walltime 217 did not produce a checkpoint — the test lost its cut")
		}
		return ck
	}
	ckOn := cut(false)
	ckOff := cut(true)

	// Captured state must be identical modulo the flag itself, which appears
	// in the checkpoint's config and in the embedded partial log's copy.
	canon := func(ck *Checkpoint) []byte {
		c := *ck
		c.Config.Eval.NoArena = false
		partial := *c.Partial
		partial.Config.Eval.NoArena = false
		c.Partial = &partial
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("marshal checkpoint: %v", err)
		}
		return b
	}
	diffJSON(t, "arena on/off checkpoint state", canon(ckOn), canon(ckOff))

	// Cross-resume: finish each cut with the OPPOSITE memory regime and
	// compare against the uninterrupted no-walltime run.
	baseCfg := equivCfg(A2C, seed)
	baseline := Run(bench(), sp, baseCfg)
	baseJSON := logJSON(t, baseline)
	finish := func(name string, ck *Checkpoint, noArena bool) {
		ck.Config.Eval.NoArena = noArena
		log, next, err := Allocate(bench(), sp, Config{}, ck, nil)
		for err == nil && next != nil {
			next.Config.Eval.NoArena = noArena
			log, next, err = Allocate(bench(), sp, Config{}, next, nil)
		}
		if err != nil {
			t.Fatalf("%s: resume chain: %v", name, err)
		}
		log.Config.Eval.NoArena = false
		log.Config.Walltime = 0
		diffJSON(t, name, baseJSON, logJSON(t, log))
	}
	finish("arena-on cut resumed with NoArena", ckOn, true)
	finish("no-arena cut resumed with arena", ckOff, false)
}
