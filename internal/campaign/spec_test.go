package campaign

import (
	"strings"
	"testing"
)

// testSpec is the small, fast campaign the package tests submit: the
// 2-agent Combo search from the search package's equivalence tests, with
// real training cut to one epoch so allocations stay sub-second.
func testSpec() Spec {
	return Spec{
		Bench:         "Combo",
		Strategy:      "a2c",
		Agents:        2,
		Workers:       2,
		Horizon:       400,
		Walltime:      100,
		Seed:          99,
		RealEpochs:    1,
		RealBatchSize: 64,
	}
}

func TestDecodeSpecValid(t *testing.T) {
	s, err := DecodeSpec(strings.NewReader(
		`{"bench":"Combo","strategy":"a2c","agents":2,"workers":2,"horizon":400,"walltime":100,"seed":99}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Bench != "Combo" || s.Strategy != "a2c" || s.Agents != 2 || s.Seed != 99 {
		t.Fatalf("decoded spec %+v", s)
	}
	cfg := s.SearchConfig()
	if cfg.Walltime != 100 || cfg.Horizon != 400 {
		t.Fatalf("config walltime=%g horizon=%g", cfg.Walltime, cfg.Horizon)
	}
}

func TestDecodeSpecDefaultsWalltime(t *testing.T) {
	s, err := DecodeSpec(strings.NewReader(`{"bench":"Uno","horizon":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SearchConfig().Walltime; got != 500 {
		t.Fatalf("derived walltime %g, want horizon/4 = 500", got)
	}
	if _, sp, err := s.Build(); err != nil || sp.Name != "uno-small" {
		t.Fatalf("default space resolved to %v (err %v), want uno-small", sp, err)
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"not json":         `hello`,
		"array":            `[1,2,3]`,
		"unknown field":    `{"bench":"Combo","horizon":400,"bogus":1}`,
		"trailing data":    `{"bench":"Combo","horizon":400} {"x":1}`,
		"trailing garbage": `{"bench":"Combo","horizon":400} what`,
		"wrong type":       `{"bench":"Combo","horizon":"tomorrow"}`,
		"missing horizon":  `{"bench":"Combo"}`,
		"negative horizon": `{"bench":"Combo","horizon":-1}`,
		"unknown bench":    `{"bench":"MNIST","horizon":400}`,
		"unknown space":    `{"bench":"Combo","space":"gigantic","horizon":400}`,
		"nt3 large":        `{"bench":"NT3","space":"large","horizon":400}`,
		"unknown strategy": `{"bench":"Combo","strategy":"dqn","horizon":400}`,
		"walltime>horizon": `{"bench":"Combo","horizon":400,"walltime":500}`,
		"bad fidelity":     `{"bench":"Combo","horizon":400,"fidelity":1.5}`,
		"negative workers": `{"bench":"Combo","horizon":400,"evalWorkers":-1}`,
		"negative seed":    `{"bench":"Combo","horizon":400,"seed":-1}`,
		"giant name":       `{"bench":"Combo","horizon":400,"name":"` + strings.Repeat("x", 200) + `"}`,
		"giant machine":    `{"bench":"Combo","horizon":60,"agents":100000,"workers":100000}`,
		"overflow machine": `{"bench":"Combo","horizon":60,"agents":4294967296,"workers":4294967296}`,
	}
	for label, body := range cases {
		if _, err := DecodeSpec(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted %q", label, body)
		}
	}
}

func TestSpecConfigMatchesCLIDefaults(t *testing.T) {
	// A spec with only required fields must map onto the same fully
	// defaulted search the CLI would run — the determinism contract
	// between the service and nas-search.
	s := Spec{Bench: "Combo", Horizon: 400, Walltime: 100, Seed: 7}
	cfg := s.SearchConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Strategy != "" || cfg.Agents != 0 || cfg.WorkersPerAgent != 0 {
		t.Fatalf("spec zero values must stay zero (search defaults them): %+v", cfg)
	}
	if cfg.Seed != 7 || cfg.Eval.Workers != 0 {
		t.Fatalf("config %+v", cfg)
	}
}
