package nasbench

import (
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
)

// TestShortWriteTableRejectsInvalid pins that the writer refuses to
// finalize structurally inconsistent tables — corruption must be
// impossible to manufacture through the API.
func TestShortWriteTableRejectsInvalid(t *testing.T) {
	mem := fsim.NewMemFS()
	cases := map[string]*Table{
		"size-mismatch": {Meta: Meta{Size: 2}, Records: []Record{{Index: 0, Key: "a"}}},
		"bad-index":     {Meta: Meta{Size: 1}, Records: []Record{{Index: 3, Key: "a"}}},
		"empty-key":     {Meta: Meta{Size: 1}, Records: []Record{{Index: 0}}},
	}
	for name, tbl := range cases {
		err := WriteTableFS(mem, "/t.nasbench", tbl)
		if err == nil {
			t.Fatalf("%s: writer accepted an invalid table", name)
		}
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("%s: rejection does not classify structurally: %v", name, err)
		}
	}
}

// TestShortTableLookupSemantics pins Metric and Best edge cases on a
// hand-made table: failed records serve nothing, non-finite metrics never
// win Best, and unknown keys miss.
func TestShortTableLookupSemantics(t *testing.T) {
	tbl := handTable()
	tbl.index()
	if _, ok := tbl.Metric("no-such-arch"); ok {
		t.Fatal("unknown key produced a metric")
	}
	if _, ok := tbl.Metric("arch-c"); ok {
		t.Fatal("compile-failed record served a metric")
	}
	if got, ok := tbl.Metric("arch-b"); !ok || !math.IsInf(got, 1) {
		t.Fatalf("Metric(arch-b) = %v, %v — raw non-finite metrics must be served as-is", got, ok)
	}
	if key, best := tbl.Best(); key != "arch-a" || best != 0.51 {
		t.Fatalf("Best() = %q, %v — non-finite and failed records must not win", key, best)
	}
}

// TestShortReadTableRealFS exercises the artifact round trip through
// fsim.OS on a real temporary directory.
func TestShortReadTableRealFS(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, TableFile)
	want := handTable()
	if err := WriteTableFS(fsim.OS, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTableFS(fsim.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != want.Meta || len(got.Records) != len(want.Records) {
		t.Fatalf("real-FS round trip changed the table: %+v", got.Meta)
	}
	if _, err := ReadTableFS(fsim.OS, filepath.Join(dir, "absent.nasbench")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing artifact: %v", err)
	}
}

// TestShortBindingConfig pins which evaluator fields bind a table: the
// reward-deciding ones and nothing wall-clock- or caller-specific.
func TestShortBindingConfig(t *testing.T) {
	full := evaluator.Config{
		Fidelity: 0.25, Epochs: 10, Timeout: 3600,
		RealBatchSize: 32, RealEpochs: 2, RealLR: 0.004, BenchSeed: 42,
		Seed: 99, Workers: 8, GlobalCache: true,
	}
	got := bindingConfig(full)
	want := evaluator.Config{
		Fidelity: 0.25, Epochs: 10, Timeout: 3600,
		RealBatchSize: 32, RealEpochs: 2, RealLR: 0.004, BenchSeed: 42,
	}
	if got != want {
		t.Fatalf("bindingConfig = %+v, want %+v", got, want)
	}
}

// TestShortBuildOrLoad pins the memoizing entry point: a bounded build
// errors without a table, a finished one loads it.
func TestShortBuildOrLoad(t *testing.T) {
	mem := fsim.NewMemFS()
	cfg := nanoBuild(mem, "/bench")
	cfg.MaxTrain = 2
	if _, _, err := BuildOrLoad(cfg); err == nil {
		t.Fatal("BuildOrLoad returned a table for an unfinished build")
	}
	cfg.MaxTrain = 0
	tbl, rep, err := BuildOrLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || !rep.Done || rep.Recovered != 2 {
		t.Fatalf("BuildOrLoad: table %v, report %+v", tbl != nil, rep)
	}
	if tbl.Meta.Space != "combo-nano" || len(tbl.Records) != 9 {
		t.Fatalf("loaded table: %+v", tbl.Meta)
	}
}
