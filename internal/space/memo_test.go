package space

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"nasgo/internal/rng"
)

// microOf restricts a fresh combo-small the way nasbench's tabulated
// sub-spaces do: every decision pinned to option 0 but the listed free ones.
func microOf(t *testing.T, name string, free map[int][]int) *Space {
	t.Helper()
	s := NewComboSmall()
	keep := make([][]int, s.NumDecisions())
	for i := range keep {
		keep[i] = Pin(0)
	}
	for i, sel := range free {
		keep[i] = sel
	}
	sub, err := Restrict(s, name, keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// memoSpaces returns constructors for every catalog space plus two
// restrictions, so a test can compile on one instance and check against a
// freshly constructed twin whose memo is empty.
func memoSpaces(t *testing.T) map[string]func() *Space {
	mk := map[string]func() *Space{
		"micro": func() *Space { return microOf(t, "micro", map[int][]int{0: nil, 3: nil}) },
		"nano":  func() *Space { return microOf(t, "nano", map[int][]int{0: {0, 1, 5}, 1: {0, 2}}) },
	}
	for _, name := range CatalogNames() {
		mk[name] = func() *Space {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	return mk
}

func (s *Space) memoLen() int {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	return len(s.memo)
}

// TestCompileMemoMatchesFreshCompile: a memo hit is the IR a fresh compile of
// a freshly constructed space returns, at the paper dims/1.0 and at a scaled
// dims/(1/16) pair, and Stats agrees.
func TestCompileMemoMatchesFreshCompile(t *testing.T) {
	for name, mk := range memoSpaces(t) {
		s := mk()
		r := rng.New(77)
		for i := 0; i < 25; i++ {
			choices := s.RandomChoices(r)
			for _, at := range []struct {
				dims  []int
				scale float64
			}{{s.PaperInputDims(), 1.0}, {scaledDims(s), 1.0 / 16}} {
				first, err := s.Compile(choices, at.dims, at.scale)
				if err != nil {
					t.Fatalf("%s %v: %v", name, choices, err)
				}
				hit, _ := s.Compile(choices, at.dims, at.scale)
				if hit != first {
					t.Fatalf("%s %v: second compile did not hit the memo", name, choices)
				}
				fresh, err := mk().Compile(choices, at.dims, at.scale)
				if err != nil {
					t.Fatal(err)
				}
				if fresh == hit || !reflect.DeepEqual(hit, fresh) {
					t.Fatalf("%s %v at scale %g: memo hit differs from a fresh compile", name, choices, at.scale)
				}
				if hit.Stats() != fresh.Stats() {
					t.Fatalf("%s %v at scale %g: stats differ", name, choices, at.scale)
				}
			}
		}
	}
}

// TestCompileMemoConfirmsInputDims: one (hash, scale) asked at two dims
// vectors recompiles instead of serving the other's IR.
func TestCompileMemoConfirmsInputDims(t *testing.T) {
	s := NewComboSmall()
	choices := s.RandomChoices(rng.New(5))
	a, err := s.Compile(choices, []int{40, 60, 60}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compile(choices, []int{41, 60, 60}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || b.Specs[0].OutDims[0] != 41 || a.Specs[0].OutDims[0] != 40 {
		t.Fatalf("different input dims served one IR: %v vs %v", a.Specs[0].OutDims, b.Specs[0].OutDims)
	}
	fresh, _ := NewComboSmall().Compile(choices, []int{41, 60, 60}, 0.5)
	if !reflect.DeepEqual(b, fresh) {
		t.Fatal("recompile at new dims differs from a fresh compile")
	}
}

// TestCompileMemoRejectsBadArguments: arguments the three checks refuse never
// enter the memo.
func TestCompileMemoRejectsBadArguments(t *testing.T) {
	s := NewComboSmall()
	good := make([]int, s.NumDecisions())
	bad := append([]int(nil), good...)
	bad[2] = s.NumChoices(2)
	neg := append([]int(nil), good...)
	neg[0] = -1
	for _, c := range []struct {
		choices []int
		dims    []int
		scale   float64
	}{
		{bad, s.PaperInputDims(), 1},
		{neg, s.PaperInputDims(), 1},
		{good[:3], s.PaperInputDims(), 1},
		{good, []int{10}, 1},
		{good, s.PaperInputDims(), 0},
		{good, s.PaperInputDims(), -2},
	} {
		if _, err := s.Compile(c.choices, c.dims, c.scale); err == nil {
			t.Fatalf("Compile(%v, %v, %g): expected an error", c.choices, c.dims, c.scale)
		}
	}
	if n := s.memoLen(); n != 0 {
		t.Fatalf("memo holds %d entries after rejected arguments only", n)
	}
}

// TestCompileMemoKeepsPassErrors: an error raised inside the pass is memoised
// and returned again.
func TestCompileMemoKeepsPassErrors(t *testing.T) {
	s := &Space{
		Name:   "null-cell",
		Inputs: []InputSpec{{Name: "x", PaperDim: 8}},
		Cells: []*Cell{{Blocks: []*Block{{
			InputKind: FromModelInput,
			Nodes:     []Node{NewVariableNode("n", IdentityOp{}, ConnectOp{})},
		}}}},
		OutputUnits: 1,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compile([]int{0}, []int{8}, 1); err != nil {
		t.Fatal(err)
	}
	_, first := s.Compile([]int{1}, []int{8}, 1)
	if first == nil || !strings.Contains(first.Error(), "produced no output") {
		t.Fatalf("Null-only cell: err = %v", first)
	}
	ir, second := s.Compile([]int{1}, []int{8}, 1)
	if ir != nil || second != first {
		t.Fatalf("second call: ir = %v, err = %v, want the memoised %v", ir, second, first)
	}
	if n := s.memoLen(); n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
}

// TestCompileMemoBounded: inserting at the cap empties the map rather than
// growing it, and results stay right across the drop.
func TestCompileMemoBounded(t *testing.T) {
	s := NewComboSmall()
	twin := NewComboSmall()
	dims := scaledDims(s)
	r := rng.New(9)
	seen := map[string]bool{}
	peak := 0
	for len(seen) < memoCap+memoCap/2 {
		choices := s.RandomChoices(r)
		ir, err := s.Compile(choices, dims, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		seen[s.Hash(choices)] = true
		n := s.memoLen()
		if n > memoCap {
			t.Fatalf("memo grew to %d entries, cap %d", n, memoCap)
		}
		if n > peak {
			peak = n
		}
		if len(seen)%97 == 0 {
			want, _ := twin.compile(choices, dims, 0.25)
			if !reflect.DeepEqual(ir, want) {
				t.Fatalf("%v: wrong IR near memo size %d", choices, n)
			}
		}
	}
	if peak != memoCap {
		t.Fatalf("memo peaked at %d entries, want the cap %d", peak, memoCap)
	}
	if n := s.memoLen(); n != len(seen)-memoCap {
		t.Fatalf("memo holds %d entries after the drop, want %d", n, len(seen)-memoCap)
	}
}

// TestCompileMemoResetByValidateAndRestrict: a key compiled before Validate
// or Restrict is not served after.
func TestCompileMemoResetByValidateAndRestrict(t *testing.T) {
	s := NewComboSmall()
	choices := make([]int, s.NumDecisions())
	choices[0] = 5
	before, err := s.Compile(choices, s.PaperInputDims(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := s.memoLen(); n != 0 {
		t.Fatalf("Validate left %d memo entries", n)
	}
	again, _ := s.Compile(choices, s.PaperInputDims(), 1)
	if again == before || !reflect.DeepEqual(again, before) {
		t.Fatal("compile after Validate: want an equal, newly compiled IR")
	}

	// Keep options {0, 5, 7} of decision 0: sub-space choice 1 is the parent's
	// 5, and choice 5 no longer exists.
	keep := make([][]int, s.NumDecisions())
	keep[0] = []int{0, 5, 7}
	sub, err := Restrict(s, "combo-trim", keep)
	if err != nil {
		t.Fatal(err)
	}
	if n := sub.memoLen(); n != 0 {
		t.Fatalf("Restrict left %d memo entries", n)
	}
	if _, err := sub.Compile(choices, sub.PaperInputDims(), 1); err == nil {
		t.Fatal("choice 5 of a 3-option decision compiled after Restrict")
	}
	choices[0] = 1
	got, err := sub.Compile(choices, sub.PaperInputDims(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.SpaceName != "combo-trim" || !reflect.DeepEqual(got.Specs, before.Specs) {
		t.Fatal("sub-space choice 1 should compile to the parent's option 5 under the new name")
	}
}

// TestCompileMemoConcurrent is the -race test (scripts/check.sh runs it
// -count=10): eight goroutines compile random members of one 2,197-key set on
// one Space — draws overlap, and together they cross the cap — and build
// models from the shared IRs.
func TestCompileMemoConcurrent(t *testing.T) {
	free := map[int][]int{0: nil, 1: nil, 2: nil}
	s, twin := microOf(t, "cube", free), microOf(t, "cube", free)
	n, err := s.EnumerateSize(1 << 12)
	if err != nil || n <= memoCap {
		t.Fatalf("key set of %d (err %v) cannot cross the cap %d", n, err, memoCap)
	}
	dims := scaledDims(s)
	want := make([]*ArchIR, n)
	for i := range want {
		if want[i], err = twin.compile(twin.ChoicesAt(i), dims, 1.0/16); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			for i := 0; i < 400; i++ {
				idx := r.Intn(n)
				ir, err := s.Compile(s.ChoicesAt(idx), dims, 1.0/16)
				if err != nil || !reflect.DeepEqual(ir, want[idx]) {
					t.Errorf("goroutine %d: arch %d: err %v or wrong IR", g, idx, err)
					return
				}
				if i%8 == 0 {
					m := ir.BuildModel(r.Split())
					if got := int64(m.Params().Count()); got != ir.Stats().Params {
						t.Errorf("goroutine %d: arch %d: model has %d params, stats say %d", g, idx, got, ir.Stats().Params)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.memoLen(); got == 0 || got > memoCap {
		t.Fatalf("memo holds %d entries, want 1..%d", got, memoCap)
	}
}

var statsSink ArchStats

// TestShortCompileMemoHitAllocatesNothing: a memo hit looks its key up from a
// stack buffer and the IR it serves carries its stats, so serving a compiled
// architecture and then its stats allocates nothing, in every catalog space.
// (The hit's key string and the stats' depth slice once cost one allocation
// each.)
func TestShortCompileMemoHitAllocatesNothing(t *testing.T) {
	for name, mk := range memoSpaces(t) {
		s := mk()
		choices := s.RandomChoices(rng.New(3))
		dims := s.PaperInputDims()
		if _, err := s.Compile(choices, dims, 1.0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := testing.AllocsPerRun(100, func() { s.Compile(choices, dims, 1.0) }); got != 0 {
			t.Errorf("%s: a memo hit allocated %v times, want 0", name, got)
		}
		if got := testing.AllocsPerRun(100, func() {
			ir, _ := s.Compile(choices, dims, 1.0)
			statsSink = ir.Stats()
		}); got != 0 {
			t.Errorf("%s: a memo hit and its stats allocated %v times, want 0", name, got)
		}
	}
}

// TestShortLiteralIRStats: an IR built as a struct literal carries no stats
// and derives them on each call; they equal the ones NewArchIR stored for
// Compile, on a sample of every catalog space at paper and scaled dims.
func TestShortLiteralIRStats(t *testing.T) {
	for name, mk := range memoSpaces(t) {
		s := mk()
		r := rng.New(29)
		for i := 0; i < 10; i++ {
			choices := s.RandomChoices(r)
			for _, at := range []struct {
				dims  []int
				scale float64
			}{{s.PaperInputDims(), 1.0}, {scaledDims(s), 1.0 / 16}} {
				ir, err := s.Compile(choices, at.dims, at.scale)
				if err != nil {
					t.Fatalf("%s %v: %v", name, choices, err)
				}
				lit := &ArchIR{SpaceName: ir.SpaceName, Specs: ir.Specs, Output: ir.Output}
				if lit.Stats() != ir.Stats() {
					t.Fatalf("%s %v at scale %g: literal %+v, constructed %+v", name, choices, at.scale, lit.Stats(), ir.Stats())
				}
			}
		}
	}
}
