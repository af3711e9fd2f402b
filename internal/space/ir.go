package space

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"nasgo/internal/nn"
	"nasgo/internal/rng"
)

// SpecKind enumerates the layer kinds of the intermediate representation.
type SpecKind int

const (
	SpecInput SpecKind = iota
	SpecDense
	SpecDropout
	SpecActivation
	SpecConv1D
	SpecMaxPool1D
	SpecFlatten
	SpecReshape1D
	SpecConcat
	SpecAdd
)

// LayerSpec is one node of a compiled architecture: an operation with fully
// resolved dimensions. From a list of LayerSpecs we derive both the
// trainable model and the analytic parameter/FLOP counts, so the two views
// can never disagree.
type LayerSpec struct {
	Kind   SpecKind
	Inputs []int // upstream spec ids

	// Operation parameters (used per Kind).
	InputIndex int // SpecInput: model input position
	Units      int // SpecDense
	Act        string
	Rate       float64 // SpecDropout
	Kernel     int     // SpecConv1D
	Filters    int
	Stride     int
	Pool       int // SpecMaxPool1D

	// SharedWith is the id of an earlier SpecDense whose weights this
	// layer reuses (MirrorNode); -1 when the layer owns its weights.
	SharedWith int

	// OutDims is the feature shape excluding the batch axis: [d] for flat
	// tensors, [length, channels] for sequences.
	OutDims []int
}

func (l LayerSpec) width() int {
	if len(l.OutDims) == 1 {
		return l.OutDims[0]
	}
	return l.OutDims[0] * l.OutDims[1]
}

// ArchIR is a compiled architecture: a topologically ordered list of layer
// specs ending at Output, read-only once NewArchIR has stored its stats.
type ArchIR struct {
	SpaceName string
	Specs     []LayerSpec
	Output    int
	// stats is set by NewArchIR; a literal IR has none (!ok), so Stats
	// derives them on every call.
	stats ArchStats
	ok    bool
}

// NewArchIR builds an IR from topologically ordered specs, stats computed.
func NewArchIR(spaceName string, specs []LayerSpec, output int) *ArchIR {
	ir := &ArchIR{SpaceName: spaceName, Specs: specs, Output: output, ok: true}
	ir.stats = ir.computeStats()
	return ir
}

// ArchStats summarizes an architecture analytically.
type ArchStats struct {
	// Params is the number of trainable parameters, counting mirrored
	// (shared) weights once — the paper's P metric.
	Params int64
	// FwdFLOPs is the approximate floating point operations of one
	// forward pass for a single example; one training step costs roughly
	// 3× this (forward + input grad + weight grad).
	FwdFLOPs float64
	// Depth is the number of parameterized layers on the longest path.
	Depth int
	// MeanWidth is the parameter-weighted mean output width (units or
	// filters) of the parameterized layers. The device cost model uses it
	// to capture the efficiency loss of narrow GEMMs on wide SIMD
	// hardware.
	MeanWidth float64
}

// compiler holds the state of one IR generation pass.
type compiler struct {
	space     *Space
	choices   []int
	inputDims []int
	unitScale float64

	specs       []LayerSpec
	inputIDs    []int
	allInputsID int
	cellOut     []int // output spec id per cell
	cellN0      []int // block-0 node-0 output spec id per cell
	decision    int
	// chosenDense maps a VariableNode to the Dense spec it produced, for
	// MirrorNode weight sharing; chosenOp maps it to the operation chosen.
	chosenOp    map[*VariableNode]Op
	chosenDense map[*VariableNode]int
}

// memoCap bounds a Space's compile memo by entry count; reaching it drops the
// whole map. An entry retains 1.7 KB (combo-micro) to 10.7 KB (combo-large) at
// paper dims, measured — a compile allocates 2.3× that — so a full memo holds
// at most 11 MB, and combo-micro's 117 × 2 compiles fit four times over.
const memoCap = 1024

// appendMemoKey appends the key of a compile, which identifies it up to its
// input dims, which the entry confirms (callers pair one dims vector with one
// unitScale): unitScale's bits, then the encoding as uvarints — injective at
// the space's fixed length, a third of Hash's cost.
func appendMemoKey(b []byte, choices []int, unitScale float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(unitScale))
	for _, c := range choices {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

type memoEntry struct {
	inputDims []int
	ir        *ArchIR
	err       error
}

// Compile resolves an architecture encoding into an IR at the given input
// dimensions. unitScale rescales Dense unit counts (1.0 reproduces the paper
// dimensions; reward estimation at laptop scale uses a smaller factor);
// other hyperparameters (conv filters, kernel sizes, dropout rates) are
// structural and stay fixed. A pure function of the validated space and its
// arguments, it is memoised per Space: the returned IR (or error) is shared
// with every caller of the same arguments, on any goroutine, and read-only.
func (s *Space) Compile(choices []int, inputDims []int, unitScale float64) (*ArchIR, error) {
	if err := s.CheckChoices(choices); err != nil {
		return nil, err
	}
	if len(inputDims) != len(s.Inputs) {
		return nil, fmt.Errorf("space %s: %d input dims, want %d", s.Name, len(inputDims), len(s.Inputs))
	}
	if unitScale <= 0 {
		return nil, fmt.Errorf("space %s: unitScale %g must be positive", s.Name, unitScale)
	}
	var buf [72]byte // the catalog's keys fit; a longer one grows onto the heap
	kb := appendMemoKey(buf[:0], choices, unitScale)
	s.memoMu.Lock()
	m, ok := s.memo[string(kb)] // a lookup by converted bytes does not allocate
	s.memoMu.Unlock()
	if ok && slices.Equal(m.inputDims, inputDims) {
		return m.ir, m.err
	}
	ir, err := s.compile(choices, inputDims, unitScale)
	s.memoMu.Lock()
	if s.memo == nil || len(s.memo) >= memoCap {
		s.memo = map[string]memoEntry{}
	}
	s.memo[string(kb)] = memoEntry{append([]int(nil), inputDims...), ir, err}
	s.memoMu.Unlock()
	return ir, err
}

// compile is the IR generation pass behind Compile, on checked arguments.
func (s *Space) compile(choices []int, inputDims []int, unitScale float64) (*ArchIR, error) {
	c := &compiler{
		space:       s,
		choices:     choices,
		inputDims:   inputDims,
		unitScale:   unitScale,
		allInputsID: -1,
		chosenOp:    map[*VariableNode]Op{},
		chosenDense: map[*VariableNode]int{},
	}
	for i, d := range inputDims {
		id := c.add(LayerSpec{Kind: SpecInput, InputIndex: i, SharedWith: -1, OutDims: []int{d}})
		c.inputIDs = append(c.inputIDs, id)
	}
	for ci, cell := range s.Cells {
		if err := c.compileCell(ci, cell); err != nil {
			return nil, err
		}
	}
	// Structure output rule.
	var headIn int
	if s.ConcatAllCells {
		headIn = c.concat(c.cellOut)
	} else {
		headIn = c.cellOut[len(c.cellOut)-1]
	}
	headIn = c.ensureFlat(headIn)
	out := c.add(LayerSpec{
		Kind: SpecDense, Inputs: []int{headIn}, Units: s.OutputUnits,
		Act: nn.ActLinear, SharedWith: -1, OutDims: []int{s.OutputUnits},
	})
	return NewArchIR(s.Name, c.specs, out), nil
}

func (c *compiler) add(spec LayerSpec) int {
	c.specs = append(c.specs, spec)
	return len(c.specs) - 1
}

func (c *compiler) dims(id int) []int { return c.specs[id].OutDims }

// ensureFlat inserts a Flatten when id carries a sequence shape.
func (c *compiler) ensureFlat(id int) int {
	d := c.dims(id)
	if len(d) == 1 {
		return id
	}
	return c.add(LayerSpec{Kind: SpecFlatten, Inputs: []int{id}, SharedWith: -1, OutDims: []int{d[0] * d[1]}})
}

// ensureSeq inserts a Reshape1D when id carries a flat shape.
func (c *compiler) ensureSeq(id int) int {
	d := c.dims(id)
	if len(d) == 2 {
		return id
	}
	return c.add(LayerSpec{Kind: SpecReshape1D, Inputs: []int{id}, SharedWith: -1, OutDims: []int{d[0], 1}})
}

// concat concatenates the given specs along the feature axis, flattening
// sequence shapes first. A single id passes through.
func (c *compiler) concat(ids []int) int {
	if len(ids) == 0 {
		panic("space: concat of nothing")
	}
	if len(ids) == 1 {
		return c.ensureFlat(ids[0])
	}
	flat := make([]int, len(ids))
	total := 0
	for i, id := range ids {
		flat[i] = c.ensureFlat(id)
		total += c.dims(flat[i])[0]
	}
	return c.add(LayerSpec{Kind: SpecConcat, Inputs: flat, SharedWith: -1, OutDims: []int{total}})
}

func (c *compiler) allInputs() int {
	if c.allInputsID < 0 {
		c.allInputsID = c.concat(c.inputIDs)
	}
	return c.allInputsID
}

func (c *compiler) scaleUnits(u int) int {
	v := int(math.Round(float64(u) * c.unitScale))
	if v < 1 {
		v = 1
	}
	return v
}

func (c *compiler) compileCell(ci int, cell *Cell) error {
	var blockOuts []int
	n0 := -1
	for bi, b := range cell.Blocks {
		cur := -1
		switch b.InputKind {
		case FromPrevCell:
			cur = c.cellOut[ci-1]
		case FromModelInput:
			cur = c.inputIDs[b.InputIndex]
		case FromNone:
		}
		// nodeOuts[k] is the spec id after node k; index -1 (the block
		// input) is handled via cur's initial value.
		blockIn := cur
		nodeOuts := make([]int, 0, len(b.Nodes))
		for _, n := range b.Nodes {
			var op Op
			var variable *VariableNode // set when this decision may be mirrored later
			var mirrorOf *VariableNode // set when this node reuses another's weights
			switch node := n.(type) {
			case *VariableNode:
				op = node.Ops[c.choices[c.decision]]
				c.decision++
				c.chosenOp[node] = op
				variable = node
			case *ConstantNode:
				op = node.Op
			case *MirrorNode:
				op = c.chosenOp[node.Target]
				if op == nil {
					return fmt.Errorf("space %s: mirror %s before its target was compiled", c.space.Name, node.Name)
				}
				mirrorOf = node.Target
			}
			cur = c.applyOp(op, cur, blockIn, nodeOuts, mirrorOf)
			if variable != nil && cur >= 0 && c.specs[cur].Kind == SpecDense {
				c.chosenDense[variable] = cur
			}
			nodeOuts = append(nodeOuts, cur)
		}
		if cur >= 0 {
			blockOuts = append(blockOuts, cur)
		}
		if bi == 0 && len(nodeOuts) > 0 {
			n0 = nodeOuts[0]
		}
	}
	if len(blockOuts) == 0 {
		return fmt.Errorf("space %s: cell %d produced no output", c.space.Name, ci)
	}
	// A single-block cell passes its output through unflattened so that
	// sequence shapes survive between NT3's convolutional cells; the
	// Concatenate rule only fires (and flattens) for multi-block cells.
	if len(blockOuts) == 1 {
		c.cellOut = append(c.cellOut, blockOuts[0])
	} else {
		c.cellOut = append(c.cellOut, c.concat(blockOuts))
	}
	c.cellN0 = append(c.cellN0, n0)
	return nil
}

// applyOp appends the spec(s) realizing op on input cur and returns the new
// current id. blockIn and nodeOuts resolve AddSkipOp references; mirrorOf,
// when non-nil, requests weight sharing with that node's Dense spec.
func (c *compiler) applyOp(op Op, cur, blockIn int, nodeOuts []int, mirrorOf *VariableNode) int {
	switch o := op.(type) {
	case IdentityOp:
		return cur
	case DenseOp:
		in := c.ensureFlat(cur)
		units := c.scaleUnits(o.Units)
		shared := -1
		if mirrorOf != nil {
			if target, ok := c.chosenDense[mirrorOf]; ok {
				if c.dims(in)[0] != c.dims(c.specs[target].Inputs[0])[0] {
					panic(fmt.Sprintf("space: mirror of %s with mismatched input width", mirrorOf.Name))
				}
				shared = target
			}
		}
		return c.add(LayerSpec{
			Kind: SpecDense, Inputs: []int{in}, Units: units, Act: o.Act,
			SharedWith: shared, OutDims: []int{units},
		})
	case DropoutOp:
		return c.add(LayerSpec{
			Kind: SpecDropout, Inputs: []int{cur}, Rate: o.Rate,
			SharedWith: -1, OutDims: append([]int(nil), c.dims(cur)...),
		})
	case ActivationOp:
		return c.add(LayerSpec{
			Kind: SpecActivation, Inputs: []int{cur}, Act: o.Kind,
			SharedWith: -1, OutDims: append([]int(nil), c.dims(cur)...),
		})
	case Conv1DOp:
		in := c.ensureSeq(cur)
		d := c.dims(in)
		kernel := o.Kernel
		if kernel > d[0] {
			kernel = d[0] // clamp for very short scaled sequences
		}
		stride := o.Stride
		if stride < 1 {
			stride = 1
		}
		outLen := (d[0]-kernel)/stride + 1
		return c.add(LayerSpec{
			Kind: SpecConv1D, Inputs: []int{in}, Kernel: kernel,
			Filters: o.Filters, Stride: stride, Act: nn.ActLinear,
			SharedWith: -1, OutDims: []int{outLen, o.Filters},
		})
	case MaxPool1DOp:
		in := c.ensureSeq(cur)
		d := c.dims(in)
		pool := o.Pool
		if pool > d[0] {
			pool = d[0] // clamp for very short scaled sequences
		}
		outLen := (d[0]-pool)/pool + 1
		return c.add(LayerSpec{
			Kind: SpecMaxPool1D, Inputs: []int{in}, Pool: pool,
			SharedWith: -1, OutDims: []int{outLen, d[1]},
		})
	case AddSkipOp:
		ref := blockIn
		if o.From >= 0 {
			ref = nodeOuts[o.From]
		}
		a := c.ensureFlat(cur)
		b := c.ensureFlat(ref)
		w := c.dims(a)[0]
		if c.dims(b)[0] > w {
			w = c.dims(b)[0]
		}
		return c.add(LayerSpec{
			Kind: SpecAdd, Inputs: []int{a, b}, SharedWith: -1, OutDims: []int{w},
		})
	case ConnectOp:
		if len(o.Sources) == 0 {
			return -1 // Null: the block contributes nothing
		}
		ids := make([]int, len(o.Sources))
		for i, src := range o.Sources {
			switch src.Kind {
			case SrcInput:
				ids[i] = c.inputIDs[src.Index]
			case SrcAllInputs:
				ids[i] = c.allInputs()
			case SrcCellOutput:
				ids[i] = c.cellOut[src.Index]
			case SrcCellN0:
				ids[i] = c.cellN0[src.Index]
			}
		}
		return c.concat(ids)
	default:
		panic(fmt.Sprintf("space: unknown op %T", op))
	}
}

// Stats returns the analytic parameter count and forward-pass FLOPs of the
// architecture. Mirrored Dense layers contribute zero parameters (their
// weights are counted at the original layer) but full FLOPs.
func (ir *ArchIR) Stats() ArchStats {
	if ir.ok {
		return ir.stats
	}
	return ir.computeStats()
}

func (ir *ArchIR) computeStats() ArchStats {
	var st ArchStats
	depth := make([]int, len(ir.Specs))
	var widthWeight, weight float64
	for i, sp := range ir.Specs {
		d := 0
		for _, in := range sp.Inputs {
			if depth[in] > d {
				d = depth[in]
			}
		}
		switch sp.Kind {
		case SpecDense:
			in := ir.Specs[sp.Inputs[0]].width()
			layerParams := float64(float64(in+1) * float64(sp.Units))
			if sp.SharedWith < 0 {
				st.Params += int64(in+1) * int64(sp.Units)
			}
			st.FwdFLOPs += float64(2 * float64(in) * float64(sp.Units))
			widthWeight += float64(layerParams * float64(sp.Units))
			weight += layerParams
			d++
		case SpecConv1D:
			cin := ir.Specs[sp.Inputs[0]].OutDims[1]
			layerParams := float64(float64(sp.Kernel*cin+1) * float64(sp.Filters))
			if sp.SharedWith < 0 {
				st.Params += int64(sp.Kernel*cin+1) * int64(sp.Filters)
			}
			st.FwdFLOPs += float64(2 * float64(sp.Kernel) * float64(cin) * float64(sp.Filters) * float64(sp.OutDims[0]))
			widthWeight += float64(layerParams * float64(sp.Filters))
			weight += layerParams
			d++
		case SpecMaxPool1D, SpecActivation, SpecDropout, SpecAdd, SpecConcat:
			st.FwdFLOPs += float64(sp.width())
		}
		depth[i] = d
		if i == ir.Output {
			st.Depth = d
		}
	}
	if weight > 0 {
		st.MeanWidth = widthWeight / weight
	} else {
		st.MeanWidth = 1
	}
	return st
}

// BuildModel instantiates the IR as a trainable nn.Model, honoring mirror
// weight sharing. Layer initialization consumes r deterministically in spec
// order.
func (ir *ArchIR) BuildModel(r *rng.Rand) *nn.Model {
	b := nn.NewModelBuilder()
	ids := make([]int, len(ir.Specs))
	dense := make(map[int]*nn.Dense)
	for i, sp := range ir.Specs {
		switch sp.Kind {
		case SpecInput:
			ids[i] = b.Input()
		case SpecDense:
			in := ir.Specs[sp.Inputs[0]].width()
			var layer *nn.Dense
			if sp.SharedWith >= 0 {
				target := dense[sp.SharedWith]
				layer = nn.NewDenseShared(target.W, target.B, sp.Act)
			} else {
				layer = nn.NewDense(r, in, sp.Units, sp.Act)
			}
			dense[i] = layer
			ids[i] = b.Layer(ids[sp.Inputs[0]], layer)
		case SpecDropout:
			ids[i] = b.Layer(ids[sp.Inputs[0]], nn.NewDropout(r, sp.Rate))
		case SpecActivation:
			ids[i] = b.Layer(ids[sp.Inputs[0]], &nn.Activate{Kind: sp.Act})
		case SpecConv1D:
			cin := ir.Specs[sp.Inputs[0]].OutDims[1]
			ids[i] = b.Layer(ids[sp.Inputs[0]], nn.NewConv1D(r, sp.Kernel, cin, sp.Filters, sp.Stride, sp.Act))
		case SpecMaxPool1D:
			ids[i] = b.Layer(ids[sp.Inputs[0]], nn.NewMaxPool1D(sp.Pool, 0))
		case SpecFlatten:
			ids[i] = b.Layer(ids[sp.Inputs[0]], &nn.Flatten{})
		case SpecReshape1D:
			ids[i] = b.Layer(ids[sp.Inputs[0]], nn.Reshape1D{})
		case SpecConcat:
			ins := make([]int, len(sp.Inputs))
			for j, in := range sp.Inputs {
				ins[j] = ids[in]
			}
			ids[i] = b.Concat(ins...)
		case SpecAdd:
			ins := make([]int, len(sp.Inputs))
			for j, in := range sp.Inputs {
				ins[j] = ids[in]
			}
			ids[i] = b.Add(ins...)
		default:
			panic(fmt.Sprintf("space: unknown spec kind %d", sp.Kind))
		}
	}
	return b.Build(ids[ir.Output])
}
