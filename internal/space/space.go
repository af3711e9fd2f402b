package space

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Node is one element of a Block: a VariableNode, ConstantNode, or
// MirrorNode.
type Node interface {
	nodeName() string
}

// VariableNode carries the candidate operations of one search decision.
type VariableNode struct {
	Name string
	Ops  []Op
}

func (n *VariableNode) nodeName() string { return n.Name }

// NewVariableNode builds a variable node; the paper's add_op interface.
func NewVariableNode(name string, ops ...Op) *VariableNode {
	if len(ops) == 0 {
		panic("space: VariableNode with no ops")
	}
	return &VariableNode{Name: name, Ops: ops}
}

// ConstantNode carries a fixed operation. It is excluded from the search
// space but participates in architecture construction — the mechanism for
// encoding domain knowledge such as Uno's residual Adds or a dose injection.
type ConstantNode struct {
	Name string
	Op   Op
}

func (n *ConstantNode) nodeName() string { return n.Name }

// MirrorNode reuses the operation chosen for Target AND shares its trained
// weights. Mirror nodes are not part of the search space; they are how
// Combo's two drug-descriptor inputs share one feature-encoding submodel.
type MirrorNode struct {
	Name   string
	Target *VariableNode
}

func (n *MirrorNode) nodeName() string { return n.Name }

// BlockInputKind says where a block's first node reads from.
type BlockInputKind int

const (
	// FromPrevCell feeds the previous cell's output (for cell 0 this is
	// invalid — cell 0 blocks must name a model input).
	FromPrevCell BlockInputKind = iota
	// FromModelInput feeds the model input with index InputIndex.
	FromModelInput
	// FromNone marks a block with no chain input (a pure Connect block).
	FromNone
)

// Block is a feed-forward sequence of nodes. The first node consumes the
// block input; each following node consumes its predecessor (plus whatever
// extra edges its operation encodes, e.g. AddSkipOp).
type Block struct {
	Name       string
	InputKind  BlockInputKind
	InputIndex int // model input index when InputKind == FromModelInput
	Nodes      []Node
}

// Cell is a set of blocks whose outputs are combined with the Concatenate
// rule (the only output rule the paper's three benchmarks use).
type Cell struct {
	Name   string
	Blocks []*Block
}

// InputSpec declares one model input layer.
type InputSpec struct {
	Name string
	// PaperDim is the input width in the original benchmark (§2); used by
	// the analytic cost model.
	PaperDim int
}

// Space is the paper's Structure: a tuple of inputs, a tuple of cells, and
// an output rule.
type Space struct {
	Name      string
	Benchmark string // "Combo", "Uno", or "NT3"
	Inputs    []InputSpec
	Cells     []*Cell
	// ConcatAllCells selects the structure output rule: when true the
	// final head consumes the concatenation of all cell outputs (Combo);
	// when false it consumes the last cell's output (Uno, NT3).
	ConcatAllCells bool
	// OutputUnits is the width of the final scalar/logit head: 1 for the
	// regression benchmarks, the class count for NT3.
	OutputUnits int

	decisions []*VariableNode // cached traversal

	// memo holds Compile's results (ir.go): the searches of a tournament,
	// the allocations of a campaign and the agents of a search share one
	// *Space, hence the lock. Validate resets it.
	memoMu sync.Mutex
	memo   map[string]memoEntry
}

// Validate checks structural invariants and caches the decision order.
// It must be called (directly or via the catalog constructors) before any
// other method.
func (s *Space) Validate() error {
	if len(s.Inputs) == 0 {
		return fmt.Errorf("space %s: no inputs", s.Name)
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("space %s: no cells", s.Name)
	}
	if s.OutputUnits < 1 {
		return fmt.Errorf("space %s: OutputUnits = %d", s.Name, s.OutputUnits)
	}
	s.decisions = nil
	s.memoMu.Lock()
	s.memo = nil
	s.memoMu.Unlock()
	known := map[*VariableNode]bool{}
	for ci, c := range s.Cells {
		if len(c.Blocks) == 0 {
			return fmt.Errorf("space %s: cell %d has no blocks", s.Name, ci)
		}
		for bi, b := range c.Blocks {
			if b.InputKind == FromPrevCell && ci == 0 {
				return fmt.Errorf("space %s: cell 0 block %d cannot read previous cell", s.Name, bi)
			}
			if b.InputKind == FromModelInput && (b.InputIndex < 0 || b.InputIndex >= len(s.Inputs)) {
				return fmt.Errorf("space %s: block %s references input %d of %d", s.Name, b.Name, b.InputIndex, len(s.Inputs))
			}
			for ni, n := range b.Nodes {
				switch node := n.(type) {
				case *VariableNode:
					if len(node.Ops) == 0 {
						return fmt.Errorf("space %s: %s has no ops", s.Name, node.Name)
					}
					s.decisions = append(s.decisions, node)
					known[node] = true
				case *ConstantNode:
					if add, ok := node.Op.(AddSkipOp); ok {
						if add.From < -1 || add.From >= ni {
							return fmt.Errorf("space %s: %s AddSkip from %d invalid at position %d", s.Name, node.Name, add.From, ni)
						}
					}
				case *MirrorNode:
					if node.Target == nil || !known[node.Target] {
						return fmt.Errorf("space %s: mirror %s targets unknown or later node", s.Name, node.Name)
					}
				default:
					return fmt.Errorf("space %s: unknown node type %T", s.Name, n)
				}
			}
		}
	}
	if len(s.decisions) == 0 {
		return fmt.Errorf("space %s: no variable nodes", s.Name)
	}
	return nil
}

// NumDecisions returns the number of VariableNodes (the architecture
// encoding length).
func (s *Space) NumDecisions() int { return len(s.decisions) }

// NumChoices returns the number of candidate operations at decision i.
func (s *Space) NumChoices(i int) int { return len(s.decisions[i].Ops) }

// MaxChoices returns the largest option count over all decisions (the
// policy network's action-head width bound).
func (s *Space) MaxChoices() int {
	m := 0
	for _, d := range s.decisions {
		if len(d.Ops) > m {
			m = len(d.Ops)
		}
	}
	return m
}

// Decision returns the VariableNode at position i.
func (s *Space) Decision(i int) *VariableNode { return s.decisions[i] }

// Size returns the cardinality of the search space: the product of the
// option counts of every variable node. The paper reports these as e.g.
// ≈2.0968×10^14 for the small Combo space.
func (s *Space) Size() float64 {
	size := 1.0
	for _, d := range s.decisions {
		size *= float64(len(d.Ops))
	}
	return size
}

// CheckChoices validates an architecture encoding against the space.
func (s *Space) CheckChoices(choices []int) error {
	if len(choices) != len(s.decisions) {
		return fmt.Errorf("space %s: %d choices, want %d", s.Name, len(choices), len(s.decisions))
	}
	for i, c := range choices {
		if c < 0 || c >= len(s.decisions[i].Ops) {
			return fmt.Errorf("space %s: choice %d = %d out of %d options", s.Name, i, c, len(s.decisions[i].Ops))
		}
	}
	return nil
}

// Hash returns a compact canonical key for an architecture, used by the
// per-agent evaluation cache.
func (s *Space) Hash(choices []int) string {
	var buf [160]byte // the catalog's keys fit; a longer one grows onto the heap
	return string(s.AppendHash(buf[:0], choices))
}

// AppendHash appends Hash's key to b, so a lookup can build it in a stack
// buffer and allocate the string only to store it.
func (s *Space) AppendHash(b []byte, choices []int) []byte {
	b = append(b, s.Name...)
	b = append(b, ':')
	for i, c := range choices {
		if i > 0 {
			b = append(b, ',')
		}
		if uint(c) < 10 {
			b = append(b, byte('0'+c)) // AppendInt's digit, without the call
		} else {
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	return b
}

// Describe renders the chosen operation of every decision, for logs and the
// analytics module.
func (s *Space) Describe(choices []int) string {
	if err := s.CheckChoices(choices); err != nil {
		return err.Error()
	}
	parts := make([]string, len(choices))
	for i, c := range choices {
		parts[i] = fmt.Sprintf("%s=%s", s.decisions[i].Name, s.decisions[i].Ops[c].OpName())
	}
	return strings.Join(parts, "; ")
}

// RandomChoices samples a uniformly random architecture encoding, the unit
// of work of the RDM baseline search.
func (s *Space) RandomChoices(r interface{ Intn(int) int }) []int {
	choices := make([]int, len(s.decisions))
	for i, d := range s.decisions {
		choices[i] = r.Intn(len(d.Ops))
	}
	return choices
}

// PaperInputDims returns the original benchmark input widths.
func (s *Space) PaperInputDims() []int {
	dims := make([]int, len(s.Inputs))
	for i, in := range s.Inputs {
		dims[i] = in.PaperDim
	}
	return dims
}
