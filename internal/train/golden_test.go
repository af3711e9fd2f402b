package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"nasgo/internal/data"
	"nasgo/internal/optim"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// The training goldens were recorded on the backward pass that formed every
// input gradient and the Evaluate that gathered its validation chunks;
// -update-fit-golden re-records them and is only legitimate when training's
// arithmetic is changed on purpose.
var updateFitGolden = flag.Bool("update-fit-golden", false,
	"re-record internal/train/testdata/fit_golden.json")

const fitGoldenPath = "testdata/fit_golden.json"

// fitCase is one recorded short training: the architecture Choices of a
// catalog Space compiled at small input dimensions, trained by Fit and
// scored by Evaluate.
type fitCase struct {
	Name    string
	Space   string
	Choices []int
	Digest  string
}

// fitCases covers the gradient routes a search space can compile: raw inputs
// concatenated into a Dense (Connect choices, SrcAllInputs among them),
// mirror-shared weights, Dropout straight on an input, an Add of a raw-input
// branch and a narrower Dense (zero padding), an Add of a node to itself, and
// Reshape → Conv1D on the input.
func fitCases() []fitCase {
	return []fitCase{
		// Dropout on the cell input, a mirrored drug chain, Connect = all inputs.
		{Name: "combo/all-inputs", Space: "combo-small", Choices: []int{4, 1, 0, 6, 0, 8, 3, 0, 0, 5, 9, 0, 0}},
		// Raw cell expression into C0's concat, Connect = cell expression & drug 1.
		{Name: "combo/raw-cell", Space: "combo-small", Choices: []int{0, 0, 0, 2, 0, 0, 0, 5, 12, 6, 1, 0, 0}},
		// Every MLP node Identity but one: the head Dense reads mostly raw columns.
		{Name: "combo/mostly-raw", Space: "combo-small", Choices: []int{12, 0, 7, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0}},
		// N0 Identity: N2 adds the raw C0 concat (wider) to the N1 Dense.
		{Name: "uno/raw-skip", Space: "uno-small", Choices: []int{1, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 5}},
		// N1 Identity: N2 adds N0 to itself; raw RNA-seq and descriptors in C0.
		{Name: "uno/self-add", Space: "uno-small", Choices: []int{0, 0, 0, 3, 0, 0, 0, 0, 12, 1, 0, 7}},
		// Reshape → Conv1D on the input, then pool, dense, dropout.
		{Name: "nt3/conv-input", Space: "nt3-small", Choices: []int{1, 1, 1, 2, 2, 0, 1, 2, 3, 2, 1, 0}},
		// Activation and MaxPool on the raw input before the first Conv1D.
		{Name: "nt3/pool-input", Space: "nt3-small", Choices: []int{0, 2, 2, 3, 1, 1, 0, 0, 0, 1, 3, 4}},
	}
}

// fitDigest trains one case and hashes the trained parameters, the epoch
// losses and the validation metric, bit for bit.
func fitDigest(t *testing.T, fc fitCase) string {
	t.Helper()
	sp, err := space.ByName(fc.Space)
	if err != nil {
		t.Fatal(err)
	}
	var trainDS, valDS *data.Dataset
	switch sp.Benchmark {
	case "Combo":
		trainDS, valDS = data.GenCombo(data.ComboConfig{Seed: 41, NTrain: 120, NVal: 50, CellDim: 12, DrugDim: 16})
	case "Uno":
		trainDS, valDS = data.GenUno(data.UnoConfig{Seed: 42, NTrain: 72, NVal: 30})
	case "NT3":
		trainDS, valDS = data.GenNT3(data.NT3Config{Seed: 43, NTrain: 48, NVal: 24, InputDim: 60})
	}
	ir, err := sp.Compile(fc.Choices, trainDS.InputDims(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(44)
	m := ir.BuildModel(r.Split())
	res := Fit(m, trainDS, Config{Epochs: 2, BatchSize: 16, Optimizer: optim.NewAdam(0.005), Rand: r.Split()})
	metric := Evaluate(m, valDS)

	h := sha256.New()
	var buf [8]byte
	for _, vs := range [][]float64{m.Params().FlattenValues(), res.EpochLosses, {metric}} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShortFitGolden pins short trainings of search-space architectures bit
// for bit: every gradient a parameter update reads, every Adam step, every
// epoch loss and the Evaluate metric.
func TestShortFitGolden(t *testing.T) {
	cases := fitCases()
	if *updateFitGolden {
		for i := range cases {
			cases[i].Digest = fitDigest(t, cases[i])
		}
		b, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fitGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(fitGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-fit-golden): %v", err)
	}
	var want []fitCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d cases, test defines %d", len(want), len(cases))
	}
	for i, fc := range cases {
		fc, w := fc, want[i]
		t.Run(fc.Name, func(t *testing.T) {
			if w.Name != fc.Name {
				t.Fatalf("golden case %d is %q, want %q", i, w.Name, fc.Name)
			}
			if got := fitDigest(t, fc); got != w.Digest {
				t.Fatalf("training digest %s, golden %s", got, w.Digest)
			}
		})
	}
}
