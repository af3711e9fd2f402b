package nn

import (
	"fmt"

	"nasgo/internal/tensor"
)

type nodeKind int

const (
	kindInput nodeKind = iota
	kindLayer
	kindConcat
	kindAdd
)

// node is one vertex of a Model's computation DAG.
type node struct {
	id     int
	kind   nodeKind
	layer  Layer
	inputs []int // upstream node ids
	// inputIndex is the position in the model's input list (kindInput only).
	inputIndex int

	// forward caches
	out    *tensor.Tensor
	widths []int // concat: column widths of each input
	inW    []int // add: original widths before zero-padding

	// reusable scratch (valid for one forward/backward pair)
	ts    []*tensor.Tensor // concat forward: gathered input tensors
	parts []*tensor.Tensor // concat backward: per-input gradient blocks
}

// ModelBuilder incrementally constructs a computation DAG. Node ids are
// returned by the builder methods and used to wire downstream nodes; every
// referenced input must already exist, which makes the node list a valid
// topological order by construction.
type ModelBuilder struct {
	nodes     []*node
	numInputs int
}

// NewModelBuilder returns an empty builder.
func NewModelBuilder() *ModelBuilder { return &ModelBuilder{} }

func (b *ModelBuilder) addNode(n *node) int {
	n.id = len(b.nodes)
	for _, in := range n.inputs {
		if in < 0 || in >= n.id {
			panic(fmt.Sprintf("nn: node %d references invalid input %d", n.id, in))
		}
	}
	b.nodes = append(b.nodes, n)
	return n.id
}

// Input declares a model input placeholder and returns its node id. Inputs
// are fed to Forward in declaration order.
func (b *ModelBuilder) Input() int {
	id := b.addNode(&node{kind: kindInput, inputIndex: b.numInputs})
	b.numInputs++
	return id
}

// Layer applies a Layer to the output of node in and returns the new node id.
func (b *ModelBuilder) Layer(in int, l Layer) int {
	return b.addNode(&node{kind: kindLayer, layer: l, inputs: []int{in}})
}

// Concat concatenates the rank-2 outputs of the given nodes along the
// feature axis — the paper's Concatenate output rule.
func (b *ModelBuilder) Concat(ins ...int) int {
	if len(ins) == 0 {
		panic("nn: Concat of zero nodes")
	}
	if len(ins) == 1 {
		return ins[0]
	}
	return b.addNode(&node{kind: kindConcat, inputs: append([]int(nil), ins...)})
}

// Add sums the rank-2 outputs of the given nodes elementwise. Narrower
// inputs are zero-padded to the widest, so heterogeneous skip connections
// (the Uno ConstantNode Add) always compose.
func (b *ModelBuilder) Add(ins ...int) int {
	if len(ins) == 0 {
		panic("nn: Add of zero nodes")
	}
	if len(ins) == 1 {
		return ins[0]
	}
	return b.addNode(&node{kind: kindAdd, inputs: append([]int(nil), ins...)})
}

// Build finalizes the model with the given output node.
func (b *ModelBuilder) Build(output int) *Model {
	if output < 0 || output >= len(b.nodes) {
		panic(fmt.Sprintf("nn: invalid output node %d", output))
	}
	params := NewParamSet()
	for _, n := range b.nodes {
		if n.kind == kindLayer {
			params.Add(n.layer.Params()...)
		}
	}
	return &Model{nodes: b.nodes, numInputs: b.numInputs, output: output, params: params}
}

// Model is a multi-input DAG of layers, the equivalent of a compiled Keras
// functional model. It supports the shapes the CANDLE networks need: several
// input layers, shared submodels, concatenation, and additive skips.
type Model struct {
	nodes     []*node
	numInputs int
	output    int
	params    *ParamSet

	// arena, when set via SetArena, supplies every per-pass buffer of
	// Forward/Backward. The model does not Reset it; the training loop owns
	// the recycle point (after the optimizer step consumed the gradients).
	arena *tensor.Arena

	// reusable backward scratch
	grads      []*tensor.Tensor
	inputGrads []*tensor.Tensor
}

// NumInputs returns the number of input placeholders.
func (m *Model) NumInputs() int { return m.numInputs }

// Params returns the deduplicated trainable parameters.
func (m *Model) Params() *ParamSet { return m.params }

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() { m.params.ZeroGrad() }

// SetArena attaches (or with nil, detaches) a workspace arena. The caller
// keeps ownership: it must Reset the arena between batches and must not
// share it with any other goroutine. Tensors returned by Forward/Backward
// live in the arena while one is attached, so they are only valid until the
// next Reset.
func (m *Model) SetArena(ar *tensor.Arena) { m.arena = ar }

// Forward runs the DAG on the given inputs (one tensor per declared Input,
// batch rows aligned) and returns the output node's tensor.
func (m *Model) Forward(xs []*tensor.Tensor, train bool) *tensor.Tensor {
	if len(xs) != m.numInputs {
		panic(fmt.Sprintf("nn: model has %d inputs, got %d", m.numInputs, len(xs)))
	}
	ar := m.arena
	for _, n := range m.nodes {
		switch n.kind {
		case kindInput:
			n.out = xs[n.inputIndex]
		case kindLayer:
			n.out = n.layer.Forward(m.nodes[n.inputs[0]].out, train, ar)
		case kindConcat:
			n.ts = n.ts[:0]
			n.widths = n.widths[:0]
			total := 0
			for _, in := range n.inputs {
				t := m.nodes[in].out
				n.ts = append(n.ts, t)
				n.widths = append(n.widths, t.Shape[1])
				total += t.Shape[1]
			}
			out := ar.Get(n.ts[0].Shape[0], total)
			tensor.ConcatColsInto(out, n.ts...)
			n.out = out
		case kindAdd:
			maxW := 0
			n.inW = n.inW[:0]
			for _, in := range n.inputs {
				w := m.nodes[in].out.Shape[1]
				n.inW = append(n.inW, w)
				if w > maxW {
					maxW = w
				}
			}
			rows := m.nodes[n.inputs[0]].out.Shape[0]
			sum := ar.Get(rows, maxW) // zeroed, like tensor.New
			for _, in := range n.inputs {
				src := m.nodes[in].out
				w := src.Shape[1]
				for r := 0; r < rows; r++ {
					dst := sum.Data[r*maxW : r*maxW+w]
					row := src.Data[r*w : (r+1)*w]
					for j, v := range row {
						dst[j] += v
					}
				}
			}
			n.out = sum
		}
	}
	return m.nodes[m.output].out
}

// Backward propagates dout (gradient at the output node) through the DAG,
// accumulating parameter gradients. It returns per-input gradients in input
// order; the returned slice is reused by the next Backward call, so callers
// that keep gradients across steps must copy them. Forward must have been
// called first.
func (m *Model) Backward(dout *tensor.Tensor) []*tensor.Tensor {
	ar := m.arena
	if cap(m.grads) < len(m.nodes) {
		m.grads = make([]*tensor.Tensor, len(m.nodes))
	}
	grads := m.grads[:len(m.nodes)]
	for i := range grads {
		grads[i] = nil
	}
	grads[m.output] = dout
	if cap(m.inputGrads) < m.numInputs {
		m.inputGrads = make([]*tensor.Tensor, m.numInputs)
	}
	inputGrads := m.inputGrads[:m.numInputs]
	for i := range inputGrads {
		inputGrads[i] = nil
	}
	// accumulate copies on first write (g may alias an upstream gradient that
	// other fan-in edges will AddInPlace into) and adds on later writes —
	// value-identical to the historical Clone-based path.
	accumulate := func(id int, g *tensor.Tensor) {
		if grads[id] == nil {
			c := ar.Get(g.Shape...)
			copy(c.Data, g.Data)
			grads[id] = c
		} else {
			tensor.AddInPlace(grads[id], g)
		}
	}
	for i := len(m.nodes) - 1; i >= 0; i-- {
		n := m.nodes[i]
		g := grads[i]
		if g == nil {
			continue // node does not feed the output
		}
		switch n.kind {
		case kindInput:
			inputGrads[n.inputIndex] = g
		case kindLayer:
			accumulate(n.inputs[0], n.layer.Backward(g, ar))
		case kindConcat:
			if cap(n.parts) < len(n.inputs) {
				n.parts = make([]*tensor.Tensor, len(n.inputs))
			}
			n.parts = n.parts[:len(n.inputs)]
			rows := g.Shape[0]
			for j, w := range n.widths {
				n.parts[j] = ar.Get(rows, w)
			}
			tensor.SplitColsInto(n.parts, g, n.widths)
			for j, in := range n.inputs {
				accumulate(in, n.parts[j])
			}
		case kindAdd:
			rows := g.Shape[0]
			maxW := g.Shape[1]
			for j, in := range n.inputs {
				w := n.inW[j]
				part := ar.Get(rows, w)
				for r := 0; r < rows; r++ {
					copy(part.Data[r*w:(r+1)*w], g.Data[r*maxW:r*maxW+w])
				}
				accumulate(in, part)
			}
		}
	}
	return inputGrads
}

// Predict runs a forward pass in inference mode.
func (m *Model) Predict(xs []*tensor.Tensor) *tensor.Tensor {
	return m.Forward(xs, false)
}
