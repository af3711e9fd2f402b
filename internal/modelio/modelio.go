// Package modelio persists trained NAS models. A saved model is the
// architecture's identity — search-space name, choice vector, input
// dimensions, unit scale — together with the trained parameter values, so
// a post-trained network can be shipped and reloaded without retraining:
//
//	modelio.SaveFS(fsim.OS, path, sp, choices, dims, scale, model)
//	model, ir, err := modelio.LoadFS(fsim.OS, path)          // catalog spaces
//	model, ir, err := modelio.LoadWithSpace(fsim.OS, path, customSpace)
//
// The format is one gob value inside the ckpt frame every other artifact
// uses, so a truncated or bit-flipped file reads as ckpt.ErrCorrupt and a
// file from a later format as ckpt.ErrVersion. Loading recompiles the
// architecture through the same IR path used everywhere else, then installs
// the saved weights, so a loaded model is structurally identical to the
// saved one by construction.
package modelio

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/nn"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// Model file container parameters (see internal/ckpt for the layout).
const (
	modelMagic   = "nasgomdl"
	modelVersion = 1
)

// saved is the on-disk representation.
type saved struct {
	SpaceName string
	Choices   []int
	InputDims []int
	UnitScale float64
	// Values is the flattened parameter vector in ParamSet order, which
	// is deterministic given the architecture.
	Values []float64
}

// SaveFS writes a trained model built from (sp, choices, inputDims,
// unitScale) to path.
func SaveFS(fsys fsim.FS, path string, sp *space.Space, choices []int, inputDims []int, unitScale float64, m *nn.Model) error {
	if err := sp.CheckChoices(choices); err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	s := saved{
		SpaceName: sp.Name,
		Choices:   append([]int(nil), choices...),
		InputDims: append([]int(nil), inputDims...),
		UnitScale: unitScale,
		Values:    m.Params().FlattenValues(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return fmt.Errorf("modelio: encode %s: %w", path, err)
	}
	return ckpt.WriteFileFS(fsys, path, modelMagic, modelVersion, buf.Bytes())
}

// LoadFS reads a model whose space is in the catalog (combo-small etc.).
func LoadFS(fsys fsim.FS, path string) (*nn.Model, *space.ArchIR, error) {
	s, err := read(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	sp, err := space.ByName(s.SpaceName)
	if err != nil {
		return nil, nil, fmt.Errorf("modelio: %s was saved from a non-catalog space %q; use LoadWithSpace", path, s.SpaceName)
	}
	return build(s, sp)
}

// LoadWithSpace reads a model saved from a custom space; the caller
// supplies the identical space definition.
func LoadWithSpace(fsys fsim.FS, path string, sp *space.Space) (*nn.Model, *space.ArchIR, error) {
	s, err := read(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if sp.Name != s.SpaceName {
		return nil, nil, fmt.Errorf("modelio: %s was saved from space %q, got %q", path, s.SpaceName, sp.Name)
	}
	return build(s, sp)
}

func read(fsys fsim.FS, path string) (*saved, error) {
	payload, _, err := ckpt.ReadFileFS(fsys, path, modelMagic, modelVersion)
	if err != nil {
		return nil, err
	}
	var s saved
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("modelio: decode %s: %w", path, err)
	}
	return &s, nil
}

func build(s *saved, sp *space.Space) (*nn.Model, *space.ArchIR, error) {
	ir, err := sp.Compile(s.Choices, s.InputDims, s.UnitScale)
	if err != nil {
		return nil, nil, fmt.Errorf("modelio: recompile: %w", err)
	}
	// The initializer RNG is irrelevant — weights are overwritten — but
	// building needs one.
	m := ir.BuildModel(rng.New(0))
	if m.Params().Count() != len(s.Values) {
		return nil, nil, fmt.Errorf("modelio: saved %d values, model has %d parameters (space definition drifted?)",
			len(s.Values), m.Params().Count())
	}
	m.Params().SetValues(s.Values)
	return m, ir, nil
}
