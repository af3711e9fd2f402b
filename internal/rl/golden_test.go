package rl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"nasgo/internal/space"
)

// The controller goldens were recorded on the allocating controller (the
// commit before the arena was threaded through rl and nn.LSTM), the
// restricted-space ones on the arena controller that still ran every
// decision's head and every step of the policy LSTM;
// -update-controller-golden re-records them and is only legitimate when the
// controller's arithmetic is changed on purpose.
var updateControllerGolden = flag.Bool("update-controller-golden", false,
	"re-record internal/rl/testdata/controller_golden.json")

const controllerGoldenPath = "testdata/controller_golden.json"

// goldenCase is one recorded controller trajectory: a controller over Space
// with Hidden LSTM units runs len(Batches) rounds, round r sampling
// Batches[r] episodes and taking Cfg.Epochs ComputeGradient/ApplyGradient
// steps on them. Odd batch sizes and a Hidden that is not a multiple of four
// put the blocked A×Bᵀ kernel on its remainder lanes; a case whose batch size
// changes between rounds reuses the arena across shape classes.
type goldenCase struct {
	Name    string
	Space   string
	Hidden  int
	Batches []int
	Digest  string
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sp := range []string{"combo-small", "uno-large"} {
		for _, m := range []int{1, 3, 4, 8} {
			cases = append(cases, goldenCase{
				Name: fmt.Sprintf("%s/m%d", sp, m), Space: sp, Batches: []int{m, m, m},
			})
		}
	}
	return append(cases,
		goldenCase{Name: "combo-small/hidden7", Space: "combo-small", Hidden: 7, Batches: []int{3, 3, 3}},
		goldenCase{Name: "combo-small/mixed", Space: "combo-small", Batches: []int{3, 1, 4}},
		goldenCase{Name: "combo-micro/m1", Space: "combo-micro", Batches: []int{1, 1, 1}},
		goldenCase{Name: "combo-micro/m4", Space: "combo-micro", Batches: []int{4, 4, 4}},
		goldenCase{Name: "combo-micro/mixed", Space: "combo-micro", Batches: []int{3, 1, 4}},
		goldenCase{Name: "combo-last/m3", Space: "combo-last", Batches: []int{3, 3, 3}},
		goldenCase{Name: "combo-pinned/m1", Space: "combo-pinned", Batches: []int{1, 1, 1}},
		goldenCase{Name: "combo-pinned/m3", Space: "combo-pinned", Batches: []int{3, 3, 3}},
	)
}

// restrictedFree names the combo-small restrictions the goldens cover, each
// by the decisions it leaves free; every other decision is pinned to its
// first option, the way the tabular benchmark restricts (combo-micro is its
// tournament space). They put one-option decisions before, between and
// after the free ones, down to a space with nothing to choose.
var restrictedFree = map[string][]string{
	"combo-micro":  {"C0.B0.N0", "C1.B1.connect"},
	"combo-last":   {"C2.B0.N2"},
	"combo-pinned": {},
}

// goldenSpace resolves a case's space: a catalog name or a restriction above.
func goldenSpace(name string) (*space.Space, error) {
	free, ok := restrictedFree[name]
	if !ok {
		return space.ByName(name)
	}
	s := space.NewComboSmall()
	keep := make([][]int, s.NumDecisions())
	for i := range keep {
		keep[i] = space.Pin(0)
		for _, f := range free {
			if s.Decision(i).Name == f {
				keep[i] = nil
			}
		}
	}
	return space.Restrict(s, name, keep)
}

// controllerDigest replays one case and hashes the IEEE-754 bits of
// everything the controller hands back: sampled choices and old
// log-probabilities, every flat gradient with its stats, the parameters
// after every ApplyGradient, and the final greedy architecture.
func controllerDigest(t *testing.T, gc goldenCase) string {
	sp, err := goldenSpace(gc.Space)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(vs ...float64) {
		for _, v := range vs {
			putU(math.Float64bits(v))
		}
	}
	c := NewController(sp, 0xc0ffee, Config{Hidden: gc.Hidden})
	for round, m := range gc.Batches {
		eps := c.Sample(m)
		for i, ep := range eps {
			sum := 0
			for _, a := range ep.Choices {
				putU(uint64(a))
				sum += a
			}
			putF(ep.OldLogP...)
			ep.Reward = float64((sum+3*i+round)%11)/10 - 0.3
		}
		for e := 0; e < c.Cfg.Epochs; e++ {
			g, st := c.ComputeGradient(eps)
			putF(g...)
			putF(st.PolicyLoss, st.ValueLoss, st.Entropy, st.MeanClipFrac)
			c.ApplyGradient(g)
			putF(c.Params().FlattenValues()...)
		}
	}
	for _, a := range c.Greedy() {
		putU(uint64(a))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShortControllerGolden pins the controller's sampling, PPO gradient and
// Adam step bit-for-bit against trajectories recorded on the allocating
// implementation.
func TestShortControllerGolden(t *testing.T) {
	cases := goldenCases()
	if *updateControllerGolden {
		for i := range cases {
			cases[i].Digest = controllerDigest(t, cases[i])
		}
		b, err := json.MarshalIndent(cases, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(controllerGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(controllerGoldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-controller-golden): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d cases, test defines %d", len(want), len(cases))
	}
	for i, gc := range cases {
		gc, w := gc, want[i]
		t.Run(gc.Name, func(t *testing.T) {
			if w.Name != gc.Name {
				t.Fatalf("golden case %d is %q, want %q", i, w.Name, gc.Name)
			}
			if got := controllerDigest(t, gc); got != w.Digest {
				t.Fatalf("controller digest %s, golden %s", got, w.Digest)
			}
		})
	}
}
