package search

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/fsim"
	"nasgo/internal/space"
	"nasgo/internal/trace"
)

// The simqueue goldens were recorded with the original container/heap event
// engine; -update-sim-goldens re-records them and the committed heap-era
// checkpoint from whatever engine is current. Only do that deliberately:
// the whole point of the files is to pin every later event queue to that
// engine's exact event order.
var updateSimGoldens = flag.Bool("update-sim-goldens", false,
	"re-record testdata/simqueue_goldens.json and testdata/simqueue_heap.ckpt from the current event engine")

const (
	simGoldenJSON = "testdata/simqueue_goldens.json"
	simGoldenCkpt = "testdata/simqueue_heap.ckpt"
)

// simQueueGolden pins one faulted search: the SHA-256 of its rendered log
// JSON and the digest of its recorded trace stream.
type simQueueGolden struct {
	Strategy    string
	Seed        uint64
	LogSHA256   string
	TraceDigest string
}

type simQueueGoldens struct {
	// Engine names the event engine the goldens were recorded with.
	Engine string
	Runs   []simQueueGolden
}

func logSHA(t *testing.T, l *Log) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(logJSON(t, l)))
}

func traceHex(events []trace.Event) string {
	return fmt.Sprintf("%x", trace.Digest(events))
}

// TestShortSimQueueGoldenTraces is the engine-swap acceptance wall: faulted
// A3C and A2C searches, and a mid-round walltime-chained A3C resume, must
// reproduce the log bytes and trace digests recorded with the original
// container/heap event queue — and a checkpoint file written by the heap
// engine must restore into the current engine and finish identically. Any
// divergence in event pop order, seq assignment, or tie-breaking shows up
// here as a digest mismatch.
func TestShortSimQueueGoldenTraces(t *testing.T) {
	forEachProcs(t, testSimQueueGoldenTraces)
}

func testSimQueueGoldenTraces(t *testing.T) {
	runs := []struct {
		strategy string
		seed     uint64
	}{{A3C, 91}, {A2C, 77}}

	recorded := simQueueGoldens{Engine: "container/heap"}
	var golden simQueueGoldens
	if !*updateSimGoldens {
		raw, err := os.ReadFile(simGoldenJSON)
		if err != nil {
			t.Fatalf("read goldens (regenerate with -update-sim-goldens): %v", err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatalf("parse %s: %v", simGoldenJSON, err)
		}
		if len(golden.Runs) != len(runs) {
			t.Fatalf("%s has %d runs, want %d", simGoldenJSON, len(golden.Runs), len(runs))
		}
	}

	// Uninterrupted faulted runs: log bytes and trace digests vs goldens.
	var a3c simQueueGolden
	for i, r := range runs {
		cfg := equivCfg(r.strategy, r.seed)
		log, events := runTraced(t, cfg, r.seed)
		got := simQueueGolden{
			Strategy:    r.strategy,
			Seed:        r.seed,
			LogSHA256:   logSHA(t, log),
			TraceDigest: traceHex(events),
		}
		if r.strategy == A3C {
			a3c = got
		}
		recorded.Runs = append(recorded.Runs, got)
		if !*updateSimGoldens {
			want := golden.Runs[i]
			if want.Strategy != r.strategy || want.Seed != r.seed {
				t.Fatalf("golden run %d is %s/%d, want %s/%d — regenerate with -update-sim-goldens",
					i, want.Strategy, want.Seed, r.strategy, r.seed)
			}
			if got.LogSHA256 != want.LogSHA256 {
				t.Errorf("%s/%d: log sha256 %s differs from heap-engine golden %s",
					r.strategy, r.seed, got.LogSHA256, want.LogSHA256)
			}
			if got.TraceDigest != want.TraceDigest {
				t.Errorf("%s/%d: trace digest %s differs from heap-engine golden %s",
					r.strategy, r.seed, got.TraceDigest, want.TraceDigest)
			}
		}
	}

	// Mid-round walltime-chained A3C resume through files: its final log and
	// CatCkpt-stripped trace must match the uninterrupted golden exactly. Its
	// first cut is the one the committed heap-era checkpoint holds.
	c := scenario{strategy: A3C, seed: 91, walltime: 217, files: true, traced: true}.chain(t)
	c.requireHard(t)
	c.log.Config.Walltime = 0
	if got := logSHA(t, c.log); got != a3c.LogSHA256 {
		t.Errorf("chained log sha256 %s differs from uninterrupted run %s", got, a3c.LogSHA256)
	}
	core := trace.WithoutCat(c.events, trace.CatCkpt)
	if got := traceHex(core); got != a3c.TraceDigest {
		t.Errorf("chained trace digest %s differs from uninterrupted run %s", got, a3c.TraceDigest)
	}
	sp := space.NewComboSmall()
	if *updateSimGoldens {
		cfg := equivCfg(A3C, 91)
		cfg.Walltime = 217
		_, ck, err := Allocate(candle.NewCombo(candle.Config{Seed: 91}), sp, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.WriteFileFS(fsim.OS, simGoldenCkpt); err != nil {
			t.Fatal(err)
		}
	}

	// Cross-engine restore: the checkpoint bytes written by the heap engine
	// resume on the current engine and the finished chain reproduces the
	// golden log exactly.
	heapCk, err := LoadCheckpointFS(fsim.OS, simGoldenCkpt)
	if err != nil {
		t.Fatalf("load heap-engine checkpoint (regenerate with -update-sim-goldens): %v", err)
	}
	rlog, next, err := Allocate(candle.NewCombo(candle.Config{Seed: 91}), sp, Config{}, heapCk, nil)
	for err == nil && next != nil {
		rlog, next, err = Allocate(candle.NewCombo(candle.Config{Seed: 91}), sp, Config{}, next, nil)
	}
	if err != nil {
		t.Fatalf("resume heap-engine checkpoint: %v", err)
	}
	rlog.Config.Walltime = 0
	want := a3c.LogSHA256
	if !*updateSimGoldens {
		want = golden.Runs[0].LogSHA256
	}
	if got := logSHA(t, rlog); got != want {
		t.Errorf("heap-engine checkpoint resumed to log sha256 %s, want golden %s", got, want)
	}

	if *updateSimGoldens {
		raw, err := json.MarshalIndent(&recorded, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simGoldenJSON, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s and %s", simGoldenJSON, simGoldenCkpt)
	}
}
