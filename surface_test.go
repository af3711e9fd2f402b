package nasgo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
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
	"Unwrap":  "errors.Unwrap",
	"ModTime": "fs.FileInfo", "Sys": "fs.FileInfo", "Type": "fs.DirEntry",
	"Greedy":                     "rl golden_test.go fingerprints it into controller_golden.json",
	"TrajectoryFromTrace":        "TestShortTraceViewsMatchLog's oracle: the trace carries what the log carries",
	"UtilizationSeriesFromTrace": "TestShortTraceViewsMatchLog's oracle: the trace carries what the log carries",
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

// walkGo parses every .go file of the module and hands each, with its
// slash-separated path, to visit. Unless tests is set it walks production code
// only: no _test.go file and nothing under examples/, which shows the API to a
// reader but is not a caller that keeps a name or an option alive.
func walkGo(t *testing.T, tests bool, visit func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && !tests && path == "examples" {
			return filepath.SkipDir
		}
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
// module outside examples/ (benchmark/, cmd/, nasgo.go included) other than at
// its declaration, or be in surfaceAllow; no surfaceAllow entry may be used or
// gone.
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

// timeFree lists the packages under internal/ that decide results: virtual
// seconds only (DESIGN.md §3). Without a clock they also cannot let host
// completion order — which goroutine of the worker pool or of a tournament
// finishes first — decide anything.
var timeFree = []string{"hpc", "balsam", "ps", "evaluator", "search", "rl", "space",
	"tensor", "nn", "optim", "train", "data", "rng", "nasbench"}

// TestTimeBase: no non-test file of a timeFree package imports time. Wall
// seconds are measured around these packages, by benchmark/, cmd/ and the
// campaign service, and only ever reported.
func TestTimeBase(t *testing.T) {
	walkPkgs(t, timeFree, func(file string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"time"` {
				t.Errorf("%s imports time: a package that decides results reads virtual seconds only", file)
			}
		}
	})
}

// walkPkgs hands visit each non-test file of the named packages under
// internal/, and fails for a name with no such file.
func walkPkgs(t *testing.T, pkgs []string, visit func(file string, f *ast.File)) {
	t.Helper()
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		seen["internal/"+pkg] = false
	}
	walkGo(t, false, func(file string, f *ast.File) {
		dir := path.Dir(file)
		if _, ok := seen[dir]; !ok {
			return
		}
		seen[dir] = true
		visit(file, f)
	})
	for dir, ok := range seen {
		if !ok {
			t.Errorf("%s has no non-test Go file", dir)
		}
	}
}

// serialKernels lists the packages under internal/ that train one network:
// they run on the caller's goroutine. Host parallelism lives in exactly two
// places, the evaluator's worker pool and nasbench's inOrder, each of which
// runs whole trainings or whole searches at once; a fork inside a kernel would
// nest a second level under them.
var serialKernels = []string{"tensor", "nn", "optim", "train", "data", "rl"}

// TestSerialKernels: no non-test file of a serialKernels package has a go
// statement or imports sync or runtime.
func TestSerialKernels(t *testing.T) {
	walkPkgs(t, serialKernels, func(file string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` || imp.Path.Value == `"runtime"` {
				t.Errorf("%s imports %s: kernels run on the caller's goroutine", file, imp.Path.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s has a go statement: host parallelism lives in the evaluator pool and inOrder", file)
			}
			return true
		})
	})
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
// or `x.F =` — in some non-test file of the module outside examples/ and
// outside a withDefaults function, or be in optionAllow; no optionAllow entry may be set or gone. An
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
