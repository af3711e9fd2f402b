package modelio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/nn"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/train"
)

// trainedModel builds and briefly trains a Combo architecture.
func trainedModel(t *testing.T) (*space.Space, []int, []int, *nn.Model, *candle.Benchmark) {
	t.Helper()
	bench := candle.NewCombo(candle.Config{Seed: 1})
	sp := space.NewComboSmall()
	choices := make([]int, sp.NumDecisions())
	for i := range choices {
		if _, ok := sp.Decision(i).Ops[0].(space.ConnectOp); !ok {
			choices[i] = 1
		}
	}
	dims := bench.Train.InputDims()
	ir, err := sp.Compile(choices, dims, bench.UnitScale)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	m := ir.BuildModel(r.Split())
	train.Fit(m, bench.Train.Slice(0, 400), train.Config{Epochs: 2, BatchSize: 32, Rand: r.Split()})
	return sp, choices, dims, m, bench
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sp, choices, dims, m, bench := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveFS(fsim.OS, path, sp, choices, dims, bench.UnitScale, m); err != nil {
		t.Fatal(err)
	}
	loaded, ir, err := LoadFS(fsim.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if ir.SpaceName != sp.Name {
		t.Fatalf("IR space %q", ir.SpaceName)
	}
	// Identical predictions on validation data.
	want := m.Predict(bench.Val.Inputs)
	got := loaded.Predict(bench.Val.Inputs)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("prediction %d differs after round trip: %g vs %g", i, want.Data[i], got.Data[i])
		}
	}
}

func TestLoadRejectsCustomSpaceWithoutDefinition(t *testing.T) {
	bench := candle.NewCombo(candle.Config{Seed: 3})
	sp := space.NewComboSmallUnshared() // not in ByName's catalog
	choices := make([]int, sp.NumDecisions())
	dims := bench.Train.InputDims()
	ir, err := sp.Compile(choices, dims, bench.UnitScale)
	if err != nil {
		t.Fatal(err)
	}
	m := ir.BuildModel(rng.New(4))
	// Through a MemFS: every read below must go through the seam it is
	// handed, never the real disk.
	mem := fsim.NewMemFS()
	const path = "/models/custom.gob"
	if err := mem.MkdirAll("/models", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveFS(mem, path, sp, choices, dims, bench.UnitScale, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFS(mem, path); err == nil {
		t.Fatal("LoadFS must reject non-catalog spaces")
	}
	loaded, _, err := LoadWithSpace(mem, path, space.NewComboSmallUnshared())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params().Count() != m.Params().Count() {
		t.Fatal("LoadWithSpace parameter mismatch")
	}
}

func TestLoadWithWrongSpaceFails(t *testing.T) {
	sp, choices, dims, m, bench := trainedModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := SaveFS(fsim.OS, path, sp, choices, dims, bench.UnitScale, m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadWithSpace(fsim.OS, path, space.NewUnoSmall()); err == nil {
		t.Fatal("expected space-name mismatch error")
	}
}

func TestSaveInvalidChoices(t *testing.T) {
	sp, _, dims, m, bench := trainedModel(t)
	if err := SaveFS(fsim.OS, filepath.Join(t.TempDir(), "x.gob"), sp, []int{1, 2}, dims, bench.UnitScale, m); err == nil {
		t.Fatal("expected choice validation error")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.gob")
	if err := os.WriteFile(path, []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFS(fsim.OS, path); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("garbage file: got %v, want ckpt.ErrCorrupt", err)
	}
	if _, _, err := LoadFS(fsim.OS, filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

// TestLoadClassifiesDamage holds model files to the error taxonomy of every
// other artifact: truncation at any point and a flipped bit are
// ckpt.ErrCorrupt, a later format version is ckpt.ErrVersion, and an I/O
// failure is neither.
func TestLoadClassifiesDamage(t *testing.T) {
	bench := candle.NewCombo(candle.Config{Seed: 5})
	sp := space.NewComboSmall()
	choices := make([]int, sp.NumDecisions())
	dims := bench.Train.InputDims()
	ir, err := sp.Compile(choices, dims, bench.UnitScale)
	if err != nil {
		t.Fatal(err)
	}
	mem := fsim.NewMemFS()
	if err := SaveFS(mem, "/m", sp, choices, dims, bench.UnitScale, ir.BuildModel(rng.New(6))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFS(mem, "/m"); err != nil {
		t.Fatalf("intact model rejected: %v", err)
	}
	raw, err := mem.ReadFile("/m")
	if err != nil {
		t.Fatal(err)
	}
	load := func(b []byte) error {
		t.Helper()
		f, err := mem.Create("/bad")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = LoadFS(mem, "/bad")
		return err
	}
	for _, n := range []int{0, 1, 51, 52, len(raw) / 2, len(raw) - 1} {
		if err := load(raw[:n]); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("model truncated to %d/%d bytes: got %v, want ckpt.ErrCorrupt", n, len(raw), err)
		}
	}
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0x40
	if err := load(flip); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("flipped payload bit: got %v, want ckpt.ErrCorrupt", err)
	}
	future := append([]byte(nil), raw...)
	future[11] = 99
	if err := load(future); !errors.Is(err, ckpt.ErrVersion) || errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("future format version: got %v, want ckpt.ErrVersion only", err)
	}
	if _, _, err := LoadFS(mem, "/absent"); err == nil || errors.Is(err, ckpt.ErrCorrupt) || errors.Is(err, ckpt.ErrVersion) {
		t.Fatalf("missing file: got %v, want a plain I/O error", err)
	}
}
