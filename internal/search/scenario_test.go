package search

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/fsim"
	"nasgo/internal/hpc"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// Search sizes a scenario can take.
const (
	sizeFaults   uint8 = iota // equivCfg: the aggressive fault model
	sizeNoFaults              // equivCfg with the zero FaultModel
	sizeSmall                 // smallCfg: full real training, tier 2
)

// scenario is one point of the search's execution space: a search, named by
// (strategy, seed, size), and the knobs that may change how it is executed
// but never what it computes. The field types are FuzzScenario's argument
// types; normalize maps any fuzzed value onto the legal sets.
type scenario struct {
	strategy    string
	seed        uint64
	size        uint8
	workers     uint8  // Eval.Workers: 0, 1, 2 or 8
	noArena     bool   // Eval.NoArena
	walltime    uint16 // Walltime: 0, 217 (cuts land mid-round) or 301
	files       bool   // checkpoints round-trip through files, as between processes
	traced      bool   // a live recorder follows the whole chain
	procs       uint8  // GOMAXPROCS for the case: 1, 2, 4 or 8
	flipWorkers bool   // continuations run with Workers 8, or 1 when the first ran 8
	flipArena   bool   // continuations run with the opposite NoArena
}

// oneOf returns v when set holds it, else the member pick selects.
func oneOf[T comparable](v T, set []T, pick int) T {
	if slices.Contains(set, v) {
		return v
	}
	return set[pick%len(set)]
}

// normalize maps a fuzzed scenario onto the legal knob values. While
// fuzzing, every search is equivCfg-sized: a smallCfg search trains ten
// times as long.
func (s scenario) normalize() scenario {
	s.strategy = oneOf(s.strategy, []string{A3C, A2C, RDM, EVO}, len(s.strategy))
	s.size = oneOf(s.size, []uint8{sizeFaults, sizeNoFaults, sizeSmall}, int(s.size))
	if s.size == sizeSmall && flag.Lookup("test.fuzz").Value.String() != "" {
		s.size = sizeFaults
	}
	s.workers = oneOf(s.workers, []uint8{0, 1, 2, 8}, int(s.workers))
	s.walltime = oneOf(s.walltime, []uint16{0, 217, 301}, int(s.walltime))
	s.procs = oneOf(s.procs, []uint8{1, 2, 4, 8}, int(s.procs))
	return s
}

func (s scenario) config() Config {
	cfg := equivCfg(s.strategy, s.seed)
	if s.size == sizeNoFaults {
		cfg.Faults = hpc.FaultModel{}
	} else if s.size == sizeSmall {
		cfg = smallCfg(s.strategy, s.seed)
	}
	cfg.Eval.Workers = int(s.workers)
	cfg.Eval.NoArena = s.noArena
	cfg.Walltime = float64(s.walltime)
	return cfg
}

// plain is the scenario's oracle: the same search run serially, arena on,
// in one allocation.
func (s scenario) plain() scenario {
	return scenario{strategy: s.strategy, seed: s.seed, size: s.size, workers: 1}
}

// chainRun is one scenario executed as a chain of allocations.
type chainRun struct {
	log         *Log
	events      []trace.Event // nil unless traced
	allocations int
	midRound    bool   // some cut caught an agent with pending evaluations
	inflight    bool   // some cut carried in-flight Balsam tasks
	first       []byte // canonical JSON of the first checkpoint; nil if never cut
}

// chain runs s allocation by allocation to completion. Through files, every
// checkpoint is written, loaded back and resumed on a benchmark rebuilt from
// its seed, exactly as a fresh process would; in memory, the checkpoint
// Allocate returned is handed straight back. Either way the flips apply to
// every continuation.
func (s scenario) chain(t *testing.T) chainRun {
	t.Helper()
	sp := space.NewComboSmall()
	bench := candle.NewCombo(candle.Config{Seed: s.seed})
	var rec *trace.Recorder
	if s.traced {
		rec = trace.NewRecorder(0)
	}
	log, ck, err := Allocate(bench, sp, s.config(), nil, rec)
	c := chainRun{allocations: 1}
	for err == nil && ck != nil {
		if c.first == nil {
			c.first = canonCheckpoint(t, ck)
		}
		c.midRound = c.midRound || slices.ContainsFunc(ck.Agents, func(a AgentState) bool { return a.Pending > 0 })
		c.inflight = c.inflight || len(ck.Eval.Inflight) > 0
		if s.files {
			path := filepath.Join(t.TempDir(), fmt.Sprintf("alloc-%03d.ckpt", c.allocations))
			if werr := ck.WriteFileFS(fsim.OS, path); werr != nil {
				t.Fatalf("write checkpoint: %v", werr)
			}
			if ck, err = LoadCheckpointFS(fsim.OS, path); err != nil {
				t.Fatalf("load checkpoint: %v", err)
			}
			bench = candle.NewCombo(candle.Config{Seed: s.seed})
		}
		if s.flipWorkers {
			ck.Config.Eval.Workers = 8
			if s.workers == 8 {
				ck.Config.Eval.Workers = 1
			}
		}
		if s.flipArena {
			ck.Config.Eval.NoArena = !s.noArena
		}
		// A continuation never writes through its checkpoint: the campaign
		// supervisor restarts a failed allocation from the one it holds.
		prev, before := ck, jsonOf(t, ck)
		log, ck, err = Allocate(bench, sp, Config{}, ck, rec)
		if !bytes.Equal(jsonOf(t, prev), before) {
			t.Fatalf("allocation %d wrote through its checkpoint argument", c.allocations)
		}
		c.allocations++
	}
	if err != nil {
		t.Fatalf("allocation chain: %v", err)
	}
	c.log = log
	if rec != nil {
		if rec.Dropped() > 0 {
			t.Fatalf("trace ring overflowed: %d events dropped", rec.Dropped())
		}
		c.events = rec.Events()
	}
	return c
}

// requireHard fails a chain that never cut an agent mid-round or with
// in-flight tasks — the cases a resume can get wrong.
func (c chainRun) requireHard(t *testing.T) {
	t.Helper()
	if c.allocations < 3 || !c.midRound || !c.inflight {
		t.Fatalf("chain too easy: %d allocations, midRound=%v, inflight=%v",
			c.allocations, c.midRound, c.inflight)
	}
}

// canonCheckpoint renders a checkpoint as JSON with the execution knobs
// masked. JSON, not the gob file: gob encodes the evaluator caches in map
// order.
func canonCheckpoint(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	c := *ck
	c.Config.Eval.Workers, c.Config.Eval.NoArena = 0, false
	partial := *c.Partial
	partial.Config.Eval.Workers, partial.Config.Eval.NoArena = 0, false
	c.Partial = &partial
	return jsonOf(t, &c)
}

// jsonOf renders a checkpoint as JSON, execution knobs included.
func jsonOf(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	return b
}

type oracle struct {
	log    []byte
	events []trace.Event
	cuts   map[uint16][]byte // canonical first checkpoint by walltime
}

// oracles is memoised per process: corpus points that share a search compute
// its plain run, and its plain first cut at each walltime, once.
var oracles = map[scenario]*oracle{}

// oracle returns the plain traced run of s's search. Its stream must span
// every layer the configuration engages, and a run never cut records no
// checkpoint marks.
func (s scenario) oracle(t *testing.T) *oracle {
	t.Helper()
	key := s.plain()
	if o, ok := oracles[key]; ok {
		return o
	}
	log, events := runTraced(t, key.config(), key.seed)
	byCat := map[string]int{}
	for _, ev := range events {
		byCat[ev.Cat]++
	}
	for cat, want := range map[string]bool{
		trace.CatSim: true, trace.CatBalsam: true, trace.CatEval: true, trace.CatSearch: true,
		trace.CatFault: key.size == sizeFaults,
		trace.CatPS:    key.strategy == A3C || key.strategy == A2C,
		trace.CatCkpt:  false,
	} {
		if (byCat[cat] > 0) != want {
			t.Fatalf("plain %s/%d trace has %d %s events", key.strategy, key.seed, byCat[cat], cat)
		}
	}
	o := &oracle{logJSON(t, log), events, map[uint16][]byte{}}
	oracles[key] = o
	return o
}

// oracleCut returns the canonical first checkpoint of the plain search cut
// at s's walltime.
func (s scenario) oracleCut(t *testing.T) []byte {
	t.Helper()
	o := s.oracle(t)
	if b, ok := o.cuts[s.walltime]; ok {
		return b
	}
	cfg := s.plain().config()
	cfg.Walltime = float64(s.walltime)
	_, ck, err := Allocate(candle.NewCombo(candle.Config{Seed: s.seed}), space.NewComboSmall(), cfg, nil, nil)
	if err != nil || ck == nil {
		t.Fatalf("plain run cut at walltime %d: checkpoint %v, error %v", s.walltime, ck != nil, err)
	}
	o.cuts[s.walltime] = canonCheckpoint(t, ck)
	return o.cuts[s.walltime]
}

// check runs s and holds it to its oracle. Once the knobs s changed are
// copied from the oracle's config, the log must be byte-equal; a traced run
// must record the oracle's events one for one plus checkpoint marks exactly
// when it was cut; a cut chain must be a hard one, and its first checkpoint
// must capture the state the plain config captures at the same walltime.
// The oracle runs at the process's GOMAXPROCS, s at its own.
func (s scenario) check(t *testing.T) {
	if s.size == sizeSmall {
		skipSlow(t)
	}
	o := s.oracle(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(int(s.procs)))
	c := s.chain(t)

	plain := s.plain().config()
	if s.workers != 1 || s.flipWorkers {
		c.log.Config.Eval.Workers = plain.Eval.Workers
	}
	if s.noArena || s.flipArena {
		c.log.Config.Eval.NoArena = plain.Eval.NoArena
	}
	if s.walltime != 0 {
		c.log.Config.Walltime = plain.Walltime
	}
	diffJSON(t, "log", o.log, logJSON(t, c.log))

	if s.traced {
		core := trace.WithoutCat(c.events, trace.CatCkpt)
		if marked := len(core) != len(c.events); marked != (c.allocations > 1) {
			t.Fatalf("%d allocations recorded checkpoint marks = %v", c.allocations, marked)
		}
		diffEvents(t, "trace", o.events, core)
		if trace.Digest(core) != trace.Digest(o.events) {
			t.Fatal("trace digest differs from the plain run's")
		}
	}
	if s.walltime == 0 {
		return
	}
	c.requireHard(t)
	diffJSON(t, "first checkpoint", s.oracleCut(t), c.first)
}

// FuzzScenario holds a search's log to a function of (strategy, seed, size)
// alone, whatever the worker count, memory regime, walltime cuts,
// checkpoint medium, recorder or core count — including knobs changed at a
// resume. The seed corpus is every point the hand-written determinism pins
// once checked, named after the pin, plus combinations none of them did.
func FuzzScenario(f *testing.F) {
	for _, s := range []scenario{
		// TestShortWorkerPoolDeterminism/a2c and /a3c: Workers 2 and 8, and a
		// Workers 8 chain through files (their Workers 1 run is the oracle).
		{strategy: A2C, seed: 83, workers: 2, traced: true, procs: 2},
		{strategy: A2C, seed: 83, workers: 8, traced: true, procs: 2},
		{strategy: A2C, seed: 83, workers: 8, walltime: 217, files: true, traced: true, procs: 2},
		{strategy: A3C, seed: 84, workers: 2, traced: true, procs: 8},
		{strategy: A3C, seed: 84, workers: 8, traced: true, procs: 8},
		{strategy: A3C, seed: 84, workers: 8, walltime: 217, files: true, traced: true, procs: 8},
		// TestShortWorkerPoolAllStrategies/rdm and /evo.
		{strategy: RDM, seed: 85, workers: 8, procs: 2},
		{strategy: EVO, seed: 86, workers: 8, procs: 2},
		// TestShortArenaDeterminism: NoArena × Workers {1, 8}.
		{strategy: A2C, seed: 87, workers: 1, noArena: true, traced: true, procs: 2},
		{strategy: A2C, seed: 87, workers: 8, traced: true, procs: 2},
		{strategy: A2C, seed: 87, workers: 8, noArena: true, traced: true, procs: 2},
		// TestShortArenaCheckpointEquivalence: an arena-on and a no-arena cut,
		// each resumed in the other regime.
		{strategy: A2C, seed: 88, walltime: 217, procs: 2, flipArena: true},
		{strategy: A2C, seed: 88, noArena: true, walltime: 217, procs: 2, flipArena: true},
		// TestShortResumeEquivalenceA2C and TestResumeEquivalence/a3c, /rdm, /evo.
		{strategy: A2C, seed: 77, walltime: 217, files: true, procs: 2},
		{strategy: A3C, seed: 78, walltime: 217, files: true, procs: 2},
		{strategy: RDM, seed: 79, walltime: 217, files: true, procs: 2},
		{strategy: EVO, seed: 80, walltime: 217, files: true, procs: 2},
		// TestWalltimeRunMatchesPlain: the fault-free small config chained in memory.
		{strategy: A3C, seed: 1, size: sizeSmall, walltime: 301, procs: 2},
		// TestShortGoldenTraceDeterminism/procs=1 and /procs=4: a same-seed
		// repeat and a chain through files.
		{strategy: A3C, seed: 91, traced: true, procs: 1},
		{strategy: A3C, seed: 91, walltime: 217, files: true, traced: true, procs: 1},
		{strategy: A3C, seed: 91, traced: true, procs: 4},
		{strategy: A3C, seed: 91, walltime: 217, files: true, traced: true, procs: 4},
		// TestDisabledTraceMatchesPlainService/a3c, /a2c, /rdm, /evo: no
		// recorder against the oracle's live one.
		{strategy: A3C, seed: 94, procs: 2},
		{strategy: A2C, seed: 95, procs: 2},
		{strategy: RDM, seed: 96, procs: 2},
		{strategy: EVO, seed: 97, procs: 2},
		// TestShortFaultReplayDeterminism.
		{strategy: A2C, seed: 43, procs: 2},
		// TestDeterministicRuns.
		{strategy: A3C, seed: 7, size: sizeSmall, procs: 2},
		// Points no pin covered: knobs changed at a resume under faults, and a
		// traced file chain of the fault-free machine.
		{strategy: EVO, seed: 86, workers: 8, walltime: 217, files: true, procs: 2, flipArena: true},
		{strategy: RDM, seed: 85, workers: 2, walltime: 301, traced: true, procs: 8, flipWorkers: true},
		{strategy: A3C, seed: 40, size: sizeNoFaults, workers: 8, noArena: true, walltime: 217, files: true, traced: true, procs: 4},
	} {
		f.Add(s.strategy, s.seed, s.size, s.workers, s.noArena, s.walltime, s.files, s.traced,
			s.procs, s.flipWorkers, s.flipArena)
	}
	f.Fuzz(func(t *testing.T, strategy string, seed uint64, size, workers uint8, noArena bool,
		walltime uint16, files, traced bool, procs uint8, flipWorkers, flipArena bool) {
		scenario{strategy, seed, size, workers, noArena, walltime, files, traced, procs,
			flipWorkers, flipArena}.normalize().check(t)
	})
}
