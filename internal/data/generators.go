package data

import (
	"math"

	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

// Paper dimensions of the three benchmarks (§2). These drive the analytic
// parameter counts and the cost model; the generators below run at scaled
// dimensions for tractable pure-Go training.
const (
	ComboCellDim = 942
	ComboDrugDim = 3820
	ComboNTrain  = 248650
	ComboNVal    = 62164

	UnoRNADim  = 942
	UnoDoseDim = 1
	UnoDescDim = 5270
	UnoFPDim   = 2048
	UnoNTrain  = 9588
	UnoNVal    = 2397

	NT3InputDim = 60483
	NT3NTrain   = 1120
	NT3NVal     = 280
	NT3Classes  = 2
)

// ComboConfig parameterizes the synthetic Combo generator. Zero values take
// scaled-down defaults suitable for laptop-scale reward estimation.
type ComboConfig struct {
	CellDim int // cell expression width (paper: 942)
	DrugDim int // per-drug descriptor width (paper: 3820)
	NTrain  int
	NVal    int
	Latent  int     // planted latent dimensionality
	Noise   float64 // observation noise stddev
	Seed    uint64
}

func (c ComboConfig) withDefaults() ComboConfig {
	if c.CellDim == 0 {
		c.CellDim = 60
	}
	if c.DrugDim == 0 {
		c.DrugDim = 120
	}
	if c.NTrain == 0 {
		c.NTrain = 1600
	}
	if c.NVal == 0 {
		c.NVal = 400
	}
	if c.Latent == 0 {
		c.Latent = 8
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	return c
}

// GenCombo generates the synthetic tumor-cell-line drug-pair response
// problem. Each example has a cell expression profile and descriptors for
// two drugs; the growth target is a nonlinear function that is SYMMETRIC in
// the two drugs, mirroring NCI-ALMANAC paired screens where (drug A, drug B)
// and (drug B, drug A) describe the same experiment. Inputs are standard
// normal; the target is standardized using the training moments.
func GenCombo(cfg ComboConfig) (train, val *Dataset) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed ^ 0xc0b0)
	// Planted projections shared across train/val. B is shared by both
	// drugs so a weight-shared submodel matches the true structure. The
	// response mixes dominant additive main effects (cell-line sensitivity
	// and per-drug potency — the strongest effects in real drug screens,
	// and what makes the problem learnable from modest data) with weaker
	// drug-cell and drug-drug interaction terms that reward deeper models.
	a := projMatrix(r, cfg.CellDim, cfg.Latent)
	b := projMatrix(r, cfg.DrugDim, cfg.Latent)
	wc := vec(r, cfg.Latent)
	wd := vec(r, cfg.Latent)
	wc2 := vec(r, cfg.Latent)
	wd2 := vec(r, cfg.Latent)
	w1 := vec(r, cfg.Latent)
	w2 := vec(r, cfg.Latent)
	// Odd (monotone) main effects are partially capturable by a linear
	// model; the even cos(2z) terms have zero linear correlation with the
	// inputs, and the cross-input interactions none either — so a raw
	// linear readout caps well below what a trained multilayer network
	// reaches, matching the paper's setting where depth pays off.
	const mainScale, evenScale, interScale = 0.6, 0.6, 0.45

	gen := func(n int, rr *rng.Rand) *Dataset {
		cell := randn(rr, n, cfg.CellDim)
		d1 := randn(rr, n, cfg.DrugDim)
		d2 := randn(rr, n, cfg.DrugDim)
		y := tensor.New(n, 1)
		zu := project(cell, a, tensor.ActIdentity)
		z1 := project(d1, b, tensor.ActIdentity)
		z2 := project(d2, b, tensor.ActIdentity)
		for i := 0; i < n; i++ {
			var main, even, inter float64
			for k := 0; k < cfg.Latent; k++ {
				raw, r1, r2 := zu.At(i, k), z1.At(i, k), z2.At(i, k)
				uv := math.Tanh(raw)
				p1, p2 := math.Tanh(r1), math.Tanh(r2)
				main += wc[k]*uv + wd[k]*(p1+p2)
				even += wc2[k]*math.Cos(2*raw) + wd2[k]*(math.Cos(2*r1)+math.Cos(2*r2))
				inter += w1[k] * uv * (p1 + p2)
				inter += w2[k] * p1 * p2
			}
			y.Set(mainScale*main+evenScale*even+interScale*inter+rr.Norm()*cfg.Noise, i, 0)
		}
		return &Dataset{
			InputNames: []string{"cell.expression", "drug1.descriptors", "drug2.descriptors"},
			Inputs:     []*tensor.Tensor{cell, d1, d2},
			YReg:       y,
		}
	}
	train = gen(cfg.NTrain, r.Split())
	val = gen(cfg.NVal, r.Split())
	standardizeY(train, val)
	return train, val
}

// UnoConfig parameterizes the synthetic Uno generator.
type UnoConfig struct {
	RNADim  int // cell RNA-seq width (paper: 942)
	DescDim int // drug descriptor width (paper: 5270)
	FPDim   int // drug fingerprint width (paper: 2048)
	NTrain  int
	NVal    int
	Latent  int
	Noise   float64
	Seed    uint64
}

func (c UnoConfig) withDefaults() UnoConfig {
	if c.RNADim == 0 {
		c.RNADim = 60
	}
	if c.DescDim == 0 {
		c.DescDim = 160
	}
	if c.FPDim == 0 {
		c.FPDim = 64
	}
	if c.NTrain == 0 {
		c.NTrain = 1200
	}
	if c.NVal == 0 {
		c.NVal = 300
	}
	if c.Latent == 0 {
		c.Latent = 8
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	return c
}

// GenUno generates the synthetic unified dose-response problem. Each example
// has an RNA-seq profile, a scalar dose, drug descriptors, and binary drug
// fingerprints; the response follows a Hill-style dose-response curve whose
// potency and efficacy depend nonlinearly on the drug/tumor features — so
// the dose interacts multiplicatively with everything else, which is what
// makes the paper's ConstantNode dose injection meaningful.
func GenUno(cfg UnoConfig) (train, val *Dataset) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed ^ 0x0400)
	ar := projMatrix(r, cfg.RNADim, cfg.Latent)
	ad := projMatrix(r, cfg.DescDim, cfg.Latent)
	af := projMatrix(r, cfg.FPDim, cfg.Latent)
	wEff := vec(r, cfg.Latent)
	wPot := vec(r, cfg.Latent)

	gen := func(n int, rr *rng.Rand) *Dataset {
		rna := randn(rr, n, cfg.RNADim)
		dose := tensor.New(n, 1)
		desc := randn(rr, n, cfg.DescDim)
		fp := tensor.New(n, cfg.FPDim)
		for i := range fp.Data {
			if rr.Float64() < 0.1 { // sparse binary fingerprints
				fp.Data[i] = 1
			}
		}
		y := tensor.New(n, 1)
		u := project(rna, ar, tensor.ActTanh) // soft nonlinear latent embeddings
		vd := project(desc, ad, tensor.ActTanh)
		vf := project(fp, af, tensor.ActTanh)
		for i := 0; i < n; i++ {
			d := 2*rr.Float64() - 1 // log-dose in [-1, 1]
			dose.Set(d, i, 0)
			var eff, pot float64
			for k := 0; k < cfg.Latent; k++ {
				m := u.At(i, k) + vd.At(i, k) + 0.5*vf.At(i, k) +
					0.5*u.At(i, k)*vd.At(i, k)
				eff += wEff[k] * m
				pot += wPot[k] * m
			}
			// Hill-style response: a feature-dependent efficacy around a
			// positive baseline, scaled by a dose sigmoid centered at a
			// feature-dependent potency. The positive baseline gives dose a
			// marginal (not just conditional) effect, as in real
			// dose-response curves where higher dose means more kill.
			resp := (1 + 0.5*math.Tanh(eff)) / (1 + math.Exp(-4*(d-0.5*math.Tanh(pot))))
			y.Set(resp+rr.Norm()*cfg.Noise, i, 0)
		}
		return &Dataset{
			InputNames: []string{"cell.rna-seq", "dose", "drug.descriptors", "drug.fingerprints"},
			Inputs:     []*tensor.Tensor{rna, dose, desc, fp},
			YReg:       y,
		}
	}
	train = gen(cfg.NTrain, r.Split())
	val = gen(cfg.NVal, r.Split())
	standardizeY(train, val)
	return train, val
}

// NT3Config parameterizes the synthetic NT3 generator.
type NT3Config struct {
	InputDim  int // expression profile length (paper: 60483)
	NTrain    int
	NVal      int
	MotifLen  int     // length of the class-discriminative motif
	NumMotifs int     // motif insertions per positive example
	Noise     float64 // background noise stddev
	Seed      uint64
}

func (c NT3Config) withDefaults() NT3Config {
	if c.InputDim == 0 {
		c.InputDim = 320
	}
	if c.NTrain == 0 {
		c.NTrain = 400
	}
	if c.NVal == 0 {
		c.NVal = 120
	}
	if c.MotifLen == 0 {
		c.MotifLen = 12
	}
	if c.NumMotifs == 0 {
		c.NumMotifs = 4
	}
	if c.Noise == 0 {
		c.Noise = 0.6
	}
	return c
}

// GenNT3 generates the synthetic tumor/normal classification problem. Every
// example is a long 1-D "gene expression" profile of smooth correlated
// noise; tumor examples additionally carry a few copies of a fixed motif at
// random positions (a translation-invariant localized signature), which is
// exactly the structure 1-D convolution + max pooling detects and flat dense
// layers struggle with. Classes are balanced.
func GenNT3(cfg NT3Config) (train, val *Dataset) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed ^ 0x0173)
	motif := make([]float64, cfg.MotifLen)
	for i := range motif {
		// A distinctive oscillating bump.
		motif[i] = 2.5 * math.Sin(float64(i)/float64(cfg.MotifLen)*2*math.Pi)
	}
	gen := func(n int, rr *rng.Rand) *Dataset {
		x := tensor.New(n, cfg.InputDim)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			// Smooth background: AR(1) noise.
			prev := 0.0
			for j := 0; j < cfg.InputDim; j++ {
				prev = 0.8*prev + rr.Norm()*cfg.Noise
				x.Data[i*cfg.InputDim+j] = prev
			}
			labels[i] = i % 2 // balanced, order shuffled below
			if labels[i] == 1 {
				for m := 0; m < cfg.NumMotifs; m++ {
					pos := rr.Intn(cfg.InputDim - cfg.MotifLen)
					for j, v := range motif {
						x.Data[i*cfg.InputDim+pos+j] += v
					}
				}
			}
		}
		ds := &Dataset{
			InputNames: []string{"rna-seq.gene-expression"},
			Inputs:     []*tensor.Tensor{x},
			YCls:       labels,
			NumClasses: NT3Classes,
		}
		return ds.Gather(rr.Perm(n))
	}
	return gen(cfg.NTrain, r.Split()), gen(cfg.NVal, r.Split())
}

// --- helpers ---

func randn(r *rng.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.Randn(r, 1)
	return t
}

// projMatrix returns a [d, k] projection scaled so projected coordinates
// have roughly unit variance.
func projMatrix(r *rng.Rand, d, k int) *tensor.Tensor {
	m := tensor.New(d, k)
	m.Randn(r, 1/math.Sqrt(float64(d)))
	return m
}

func vec(r *rng.Rand, k int) []float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

// project returns act(x·m) in a fresh tensor.
func project(x, m *tensor.Tensor, act tensor.Act) *tensor.Tensor {
	out := tensor.New(x.Shape[0], m.Shape[1])
	tensor.DenseForwardInto(out, x, m, nil, act)
	return out
}

// standardizeY rescales both splits' regression targets by the training
// split's mean and standard deviation.
func standardizeY(train, val *Dataset) {
	mean := train.YReg.Mean()
	var ss float64
	for _, v := range train.YReg.Data {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(train.YReg.Size()))
	if std == 0 {
		std = 1
	}
	for _, ds := range []*Dataset{train, val} {
		for i := range ds.YReg.Data {
			ds.YReg.Data[i] = (ds.YReg.Data[i] - mean) / std
		}
	}
}
