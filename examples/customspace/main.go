// Customspace: build your own benchmark and search space with the paper's
// formalism — VariableNodes for searched decisions, a ConstantNode to pin
// domain structure, and MirrorNodes for weight sharing between twin inputs.
//
//	go run ./examples/customspace
//
// The toy problem is a symmetric "two-sensor" regression: two identically
// distributed sensor vectors plus a context vector, with a target symmetric
// in the sensors (like Combo's interchangeable drugs). The custom space
// shares the sensor encoder via MirrorNodes, and a ConstantNode injects the
// raw context into the fusion stage.
package main

import (
	"fmt"
	"log"
	"math"

	"nasgo"
	"nasgo/internal/analytics"
	"nasgo/internal/candle"
	"nasgo/internal/data"
	"nasgo/internal/nn"
	"nasgo/internal/rng"
	"nasgo/internal/space"
	"nasgo/internal/tensor"
)

// genTwoSensor creates the toy dataset: y = f(ctx) · (g(s1) + g(s2)) + ε.
func genTwoSensor(seed uint64, n, ctxDim, sensorDim int) *data.Dataset {
	r := rng.New(seed)
	ctx := tensor.New(n, ctxDim)
	ctx.Randn(r, 1)
	s1 := tensor.New(n, sensorDim)
	s1.Randn(r, 1)
	s2 := tensor.New(n, sensorDim)
	s2.Randn(r, 1)
	y := tensor.New(n, 1)
	for i := 0; i < n; i++ {
		var f, g1, g2 float64
		for j := 0; j < ctxDim; j++ {
			f += ctx.At(i, j)
		}
		for j := 0; j < sensorDim; j++ {
			g1 += float64(s1.At(i, j) * math.Pow(-1, float64(j)))
			g2 += float64(s2.At(i, j) * math.Pow(-1, float64(j)))
		}
		y.Set(float64(math.Tanh(f/4)*(math.Tanh(g1/4)+math.Tanh(g2/4)))+float64(0.05*r.Norm()), i, 0)
	}
	return &data.Dataset{
		InputNames: []string{"context", "sensor1", "sensor2"},
		Inputs:     []*tensor.Tensor{ctx, s1, s2},
		YReg:       y,
	}
}

func main() {
	const seed = 23
	trainDS := genTwoSensor(seed, 1500, 8, 24)
	valDS := genTwoSensor(seed+1, 400, 8, 24)

	// Encoder choices for each searched node.
	encOps := []space.Op{
		space.IdentityOp{},
		space.DenseOp{Units: 32, Act: nn.ActReLU},
		space.DenseOp{Units: 32, Act: nn.ActTanh},
		space.DenseOp{Units: 64, Act: nn.ActReLU},
		space.DropoutOp{Rate: 0.1},
	}
	sensorEnc := []space.Node{
		space.NewVariableNode("sensor.N0", encOps...),
		space.NewVariableNode("sensor.N1", encOps...),
	}
	mirror := []space.Node{
		&space.MirrorNode{Name: "sensor2.M0", Target: sensorEnc[0].(*space.VariableNode)},
		&space.MirrorNode{Name: "sensor2.M1", Target: sensorEnc[1].(*space.VariableNode)},
	}
	sp := &space.Space{
		Name:      "two-sensor",
		Benchmark: "Custom",
		Inputs: []space.InputSpec{
			{Name: "context", PaperDim: 8},
			{Name: "sensor1", PaperDim: 24},
			{Name: "sensor2", PaperDim: 24},
		},
		Cells: []*space.Cell{
			{Name: "encode", Blocks: []*space.Block{
				{Name: "ctx", InputKind: space.FromModelInput, InputIndex: 0, Nodes: []space.Node{
					// Domain knowledge: the raw context always joins the
					// fusion concat, outside the search space.
					&space.ConstantNode{Name: "ctx.keep", Op: space.IdentityOp{}},
				}},
				{Name: "s1", InputKind: space.FromModelInput, InputIndex: 1, Nodes: sensorEnc},
				{Name: "s2", InputKind: space.FromModelInput, InputIndex: 2, Nodes: mirror},
			}},
			{Name: "fuse", Blocks: []*space.Block{
				{Name: "head", InputKind: space.FromPrevCell, Nodes: []space.Node{
					space.NewVariableNode("fuse.N0", encOps...),
					space.NewVariableNode("fuse.N1", encOps...),
				}},
			}},
		},
		OutputUnits: 1,
	}
	if err := sp.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom space: %d decisions, %.0f architectures\n", sp.NumDecisions(), sp.Size())

	// A custom benchmark plugs straight into the search infrastructure.
	bench := &candle.Benchmark{
		Name:              "TwoSensor",
		Metric:            "R2",
		Train:             trainDS,
		Val:               valDS,
		BatchSize:         32,
		RewardTrainFrac:   1.0,
		UnitScale:         1.0,
		PaperTrainSamples: trainDS.N(),
		PaperValSamples:   valDS.N(),
		FullStageSeconds:  5,
	}

	res := nasgo.RunSearch(bench, sp, nasgo.SearchConfig{
		Strategy:        nasgo.A3C,
		Agents:          2,
		WorkersPerAgent: 4,
		Horizon:         40 * 60,
		Seed:            seed,
	})
	s := analytics.Summarize(res.Results)
	fmt.Printf("search: %d evaluations, best R² = %.3f\n", s.Evaluations, s.BestReward)
	best := res.TopK(1)[0]
	fmt.Printf("best architecture (sensor2 mirrors sensor1's weights):\n  %s\n",
		sp.Describe(best.Choices))
}
