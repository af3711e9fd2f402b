package nasbench

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
)

// Shared fast-tier build fixture: the combo-nano sub-space (9 archs) at the
// campaign tests' cheap training knobs. BenchSeed is arbitrary but fixed —
// every test that compares against a live run must use the same value.
const (
	testBenchSeed  = 0xb5eed
	testCandleSeed = 7
)

func testBench() *candle.Benchmark {
	return candle.NewCombo(candle.Config{Seed: testCandleSeed})
}

func testEval() evaluator.Config {
	return evaluator.Config{
		BenchSeed:     testBenchSeed,
		RealEpochs:    1,
		RealBatchSize: 64,
		Workers:       1,
	}
}

func nanoBuild(fsys fsim.FS, dir string) BuildConfig {
	return BuildConfig{
		Bench: testBench(),
		Space: ComboNano(),
		Eval:  testEval(),
		Dir:   dir,
		FS:    fsys,
	}
}

// killAfter is the kill/resume tests' power cut: a filesystem over base
// that loses power at the first mutating operation after this session's
// nth durable WAL unit. A session makes three before its first unit (the
// directory, the segment, the directory sync), then a write and an fsync
// per unit. The session fails with fsim.ErrCrashed; base keeps the n
// units, each acknowledged durable before the cut.
func killAfter(base fsim.FS, n int) *fsim.FaultFS {
	return fsim.NewFaultFS(base, fsim.Faults{CrashAtOp: int64(3 + 2*n + 1)})
}

// killBuild runs a build session over cfg.FS that is killed after n new
// records.
func killBuild(t *testing.T, cfg BuildConfig, n int) {
	t.Helper()
	cfg.FS = killAfter(cfg.FS, n)
	if _, _, err := BuildOrLoad(cfg); !errors.Is(err, fsim.ErrCrashed) {
		t.Fatalf("build killed after %d records: %v", n, err)
	}
}

// buildNanoTable builds (or resumes) the shared nano table once per test
// process on its own MemFS and returns table + raw artifact bytes.
func buildNanoTable(t testing.TB) (*Table, []byte) {
	t.Helper()
	mem := fsim.NewMemFS()
	tbl, _, err := BuildOrLoad(nanoBuild(mem, "/bench"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mem.ReadFile("/bench/" + TableFile)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, raw
}

func TestShortBuildFinalizesAndRereads(t *testing.T) {
	mem := fsim.NewMemFS()
	tbl, rep, err := BuildOrLoad(nanoBuild(mem, "/bench"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 9 || rep.Trained != 9 {
		t.Fatalf("fresh build report: %+v", rep)
	}
	sp := ComboNano()
	if tbl.Meta.Bench != "Combo" || tbl.Meta.Space != "combo-nano" || tbl.Meta.Size != 9 {
		t.Fatalf("table meta: %+v", tbl.Meta)
	}
	if tbl.Meta.Eval.BenchSeed != testBenchSeed {
		t.Fatalf("meta lost the bench seed: %+v", tbl.Meta.Eval)
	}
	finite := 0
	for i, r := range tbl.Records {
		if want := sp.Hash(sp.ChoicesAt(i)); r.Key != want {
			t.Fatalf("record %d keys %s, enumeration says %s", i, r.Key, want)
		}
		if !r.Failed {
			if got, ok := tbl.Metric(r.Key); !ok || got != r.Metric && !(math.IsNaN(got) && math.IsNaN(r.Metric)) {
				t.Fatalf("Metric(%s) = %v,%v, record holds %v", r.Key, got, ok, r.Metric)
			}
			if r.Attempts != 1 || r.Duration <= 0 {
				t.Fatalf("record %d: attempts %d, duration %g", i, r.Attempts, r.Duration)
			}
			if !math.IsNaN(r.Metric) && !math.IsInf(r.Metric, 0) {
				finite++
			}
		}
	}
	if finite == 0 {
		t.Fatal("no record carries a finite metric")
	}
	if key, best := tbl.Best(); key == "" || math.IsInf(best, -1) {
		t.Fatalf("Best() = %q, %g", key, best)
	}
	// The WAL must be gone after finalize.
	if payloads, _, err := scanSegments(mem, "/bench"); err != nil || len(payloads) != 0 {
		t.Fatalf("segments survive finalize: %d payloads, err %v", len(payloads), err)
	}

	// A re-run recovers everything from the artifact and trains nothing.
	_, rep2, err := BuildOrLoad(nanoBuild(mem, "/bench"))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Total != 9 || rep2.Trained != 0 {
		t.Fatalf("memoized build report: %+v", rep2)
	}
}

// TestShortBuildResumeByteIdentical pins the resume protocol: a session
// killed after several prefix lengths, then resumed to completion from the
// crash image, must finalize to the exact bytes of the uninterrupted build
// and never retrain a durable record.
func TestShortBuildResumeByteIdentical(t *testing.T) {
	_, ref := buildNanoTable(t)
	for stop := 1; stop < 9; stop += 3 {
		mem := fsim.NewMemFS()
		killBuild(t, nanoBuild(mem, "/bench"), stop)
		img := mem.CrashImage()
		_, rep2, err := BuildOrLoad(nanoBuild(img, "/bench"))
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Total != 9 || rep2.Trained != 9-stop {
			t.Fatalf("stop=%d: resume retrained durable records: %+v", stop, rep2)
		}
		raw, err := img.ReadFile("/bench/" + TableFile)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, ref) {
			t.Fatalf("stop=%d: resumed artifact differs from uninterrupted build", stop)
		}
	}
}

func TestShortBuildRejectsForeignState(t *testing.T) {
	mem := fsim.NewMemFS()
	if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
		t.Fatal(err)
	}
	// Same dir, different sub-space: the artifact meta must refuse.
	cfg := nanoBuild(mem, "/bench")
	cfg.Space = ComboMicro()
	if _, _, err := BuildOrLoad(cfg); err == nil {
		t.Fatal("build over a foreign artifact succeeded")
	}

	// Durable WAL from one space, resumed with another: key check refuses.
	mem2 := fsim.NewMemFS()
	cfg2 := nanoBuild(mem2, "/bench")
	killBuild(t, cfg2, 2)
	cfg2.Space = ComboMicro()
	if _, _, err := BuildOrLoad(cfg2); err == nil {
		t.Fatal("resume with the wrong sub-space succeeded")
	}

	// Benchmark mode is mandatory.
	cfg3 := nanoBuild(fsim.NewMemFS(), "/bench")
	cfg3.Eval.BenchSeed = 0
	if _, _, err := BuildOrLoad(cfg3); err == nil {
		t.Fatal("build without BenchSeed succeeded")
	}
}

// TestShortBuildQuarantinesCorruptArtifact: a torn table artifact (what
// fsync-lying firmware leaves) is quarantined and rebuilt from the WAL,
// not trusted and not retried forever.
func TestShortBuildQuarantinesCorruptArtifact(t *testing.T) {
	_, ref := buildNanoTable(t)
	mem := fsim.NewMemFS()
	if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("/bench", TableFile)
	raw, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mem.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTableFS(mem, path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("torn artifact error: %v", err)
	}
	if _, _, err := BuildOrLoad(nanoBuild(mem, "/bench")); err != nil {
		t.Fatal(err)
	}
	got, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("rebuilt artifact differs from the reference build")
	}
}
