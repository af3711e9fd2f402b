package nasgo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surfaceAllow maps each exported name under internal/ with no production use
// to the reason it stays. Kept test surface whose bare name is live elsewhere
// (balsam's MeanUtilization/Failed, ResetCache, Tensor.Rows/String) cannot be listed.
var surfaceAllow = map[string]string{
	// Interface-satisfying methods that no call site names.
	"Unwrap": "errors.Unwrap", "MarshalJSON": "json.Marshaler", "UnmarshalJSON": "json.Unmarshaler",
	"ModTime": "fs.FileInfo", "Sys": "fs.FileInfo", "Type": "fs.DirEntry",
	"Greedy":                     "rl golden_test.go fingerprints it into controller_golden.json",
	"AddEvalBatch":               "the paper's §4 evaluator interface by name (DESIGN §2)",
	"GetFinishedEvals":           "the paper's §4 evaluator interface by name (DESIGN §2)",
	"TrajectoryFromTrace":        "TestShortTraceViewsMatchLog's oracle: the trace carries what the log carries",
	"UtilizationSeriesFromTrace": "TestShortTraceViewsMatchLog's oracle: the trace carries what the log carries",
	"FromSlice":                  "constructor of the tensor value type (26 test uses)",
	"Clone":                      "copy of the tensor value type (16 test uses)",
	"Fill":                       "initializer of the tensor value type (19 test uses)",
	"Cols":                       "shape probe of the tensor value type, with Rows",
	"Live":                       "tensor.Arena probe the zero-alloc pins read",
	"Pooled":                     "tensor.Arena probe the zero-alloc pins read",
	"FailNode":                   "evaluator/faults_test.go scripts outages through it from another package",
	"RepairNode":                 "evaluator/faults_test.go scripts outages through it from another package",
	"IdleSeconds":                "read-out of downIntegral, which is checkpointed wire state in balsam.State",
	"NumInputs":                  "read by evaluator, candle and space tests",
	"WithoutCat":                 "search's trace-modulo-CatCkpt comparisons",
	"Injected":                   "fsim.FaultFS is a library driven by tests; this is its read-out",
	"Crashed":                    "fsim.FaultFS is a library driven by tests; this is its read-out",
}

// walkGo parses every .go file of the module — _test.go files only when
// tests is set — and hands each, with its slash-separated path, to visit.
func walkGo(t *testing.T, tests bool, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || (!tests && strings.HasSuffix(path, "_test.go")) {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err == nil {
			visit(filepath.ToSlash(path), f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSurface: every exported func, method, type, const and var declared in a
// non-test file under internal/ must be named in some non-test file of the
// module (benchmark/, cmd/, examples/, nasgo.go included) other than at its
// declaration, or be in surfaceAllow; no surfaceAllow entry may be used or gone.
// Matching by bare name under-reports — a dead Len hides behind any live Len —
// so this is a ratchet against regrowth, not a type-checked pass.
func TestSurface(t *testing.T) {
	declared, used := map[string]string{}, map[string]bool{}
	walkGo(t, false, func(path string, f *ast.File) {
		decl := map[*ast.Ident]bool{} // declaring occurrences: not uses
		declare := func(ids ...*ast.Ident) {
			for _, id := range ids {
				decl[id] = true
				if id.IsExported() && strings.HasPrefix(path, "internal/") {
					declared[id.Name] = path
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declare(n.Name)
			case *ast.TypeSpec:
				declare(n.Name)
			case *ast.ValueSpec:
				declare(n.Names...)
			case *ast.Field: // struct fields, parameters, interface methods
				for _, id := range n.Names {
					decl[id] = true
				}
			case *ast.Ident:
				if !decl[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	})
	for name, path := range declared {
		if _, ok := surfaceAllow[name]; !used[name] && !ok {
			t.Errorf("%s: exported %s has no production caller: delete it, or add it to surfaceAllow with a reason", path, name)
		}
	}
	for name := range surfaceAllow {
		if _, ok := declared[name]; !ok || used[name] {
			t.Errorf("surfaceAllow[%q] is stale: declared=%v used=%v", name, ok, used[name])
		}
	}
}

// optionAllow maps each option field ("pkg.Type.Field") that no production
// file sets to the reason it stays.
var optionAllow = map[string]string{
	// Marshalled into every log the goldens and benchmark/golden.go digest:
	// deleting one moves log bytes, which ROADMAP item 6's re-pin window does.
	"evaluator.Config.TimeWeight":  "ROADMAP item 6 re-pin window",
	"rl.Config.LearningRate":       "ROADMAP item 6 re-pin window",
	"rl.Config.ValueCoef":          "ROADMAP item 6 re-pin window",
	"rl.Config.EntropyCoef":        "ROADMAP item 6 re-pin window",
	"search.Config.PSLatency":      "ROADMAP item 6 re-pin window",
	"search.Config.UpdateCost":     "ROADMAP item 6 re-pin window",
	"search.Config.EvoPopulation":  "ROADMAP item 6 re-pin window",
	"search.Config.ConvergeRounds": "ROADMAP item 6 re-pin window",
	// Test seams.
	"nasbench.BuildConfig.MaxTrain":     "kill/resume tests bound a build session",
	"nasbench.TournamentConfig.MaxRuns": "kill/resume tests bound a tournament session",
	"data.ComboConfig.CellDim":          "unit tests generate small datasets",
	"data.ComboConfig.DrugDim":          "unit tests generate small datasets",
	"data.NT3Config.InputDim":           "unit tests generate small datasets",
	"fsim.Faults.ShortWriteProb":        "fsim.FaultFS is a library driven by tests; fsim's own tests script torn writes",
	"fsim.Faults.WriteErrProb":          "fsim.FaultFS is a library driven by tests; fsim's own tests script random EIO",
	"fsim.Faults.WriteErrEvery":         "fsim.FaultFS is a library driven by tests; ckpt and nasbench transient-I/O tests script EIO",
	"fsim.Faults.SyncErrEvery":          "fsim.FaultFS is a library driven by tests; fsim's own tests script fsync EIO",
	"fsim.Faults.DiskBudget":            "fsim.FaultFS is a library driven by tests; ckpt's ENOSPC test scripts a full disk",
}

var optionType = regexp.MustCompile(`(Config|Options)$|^Faults$|^Scale$`)

// TestOptions: every exported field of a struct type under internal/ named
// *Config, *Options, Faults or Scale must be assigned — composite-literal key
// or `x.F =` — in some non-test file of the module outside a withDefaults
// function, or be in optionAllow; no optionAllow entry may be set or gone. An
// option only its default sets is a constant. Matching by bare field name
// under-reports exactly as TestSurface does — a dead Logf hides behind any
// live Logf — so this is a ratchet against regrowth, not a type-checked pass.
func TestOptions(t *testing.T) {
	declared, set := map[string]string{}, map[string]bool{} // "pkg.Type.Field" → field name; field name → set
	walkGo(t, false, func(path string, f *ast.File) {
		internal := strings.HasPrefix(path, "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return !strings.EqualFold(n.Name.Name, "withDefaults")
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !internal || !optionType.MatchString(n.Name.Name) {
					break
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							declared[f.Name.Name+"."+n.Name.Name+"."+id.Name] = id.Name
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	})
	for key, field := range declared {
		if _, ok := optionAllow[key]; !set[field] && !ok {
			t.Errorf("option %s is set by no production file: make it a constant, or add it to optionAllow with a reason", key)
		}
	}
	for key := range optionAllow {
		if field, ok := declared[key]; !ok || set[field] {
			t.Errorf("optionAllow[%q] is stale: declared=%v set=%v", key, ok, set[field])
		}
	}
}
