package nasgo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// surfaceAllow maps each exported name under internal/ with no production use
// to the reason it stays. Kept test surface whose bare name is live elsewhere
// (Tensor.Rows/String) cannot be listed.
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

var (
	// fusedOp matches the x86 fused multiply-add mnemonics.
	fusedOp = regexp.MustCompile(`\bVFN?M(ADD|SUB)`)
	// avx512Reg matches the registers only AVX-512 has: Z, the K masks and
	// X16–X31/Y16–Y31.
	avx512Reg = regexp.MustCompile(`\b(Z[0-9]+|K[0-7]|[XY](1[6-9]|2[0-9]|3[01]))\b`)
	// asmMacro matches a #define's name and parameters; its body follows.
	asmMacro = regexp.MustCompile(`^#define\s+(\w+)(\([^)]*\))?`)
)

// avx1Ops are the vector instructions the module's assembly may use, all of
// them AVX1: hasAVX checks for no more, and an AVX2, FMA or AVX-512
// instruction would fault on a CPU that has only AVX, which no host here
// can show. A new one joins the list once it is checked to be AVX1.
var avx1Ops = map[string]bool{
	"VADDPD": true, "VBROADCASTSD": true, "VDIVPD": true, "VMASKMOVPD": true, "VMOVUPD": true,
	"VMULPD": true, "VSQRTPD": true, "VSUBPD": true, "VXORPD": true, "VZEROUPPER": true,
}

// TestNoFusedAssembly: internal/tensor holds the module's only assembly, and
// no instruction in it is a fused multiply-add, which rounds once where the
// Go loop it stands in for rounds twice (DESIGN §6). check.sh's arm64 gate
// holds compiled Go to the same rule. Every vector instruction, in macro
// bodies too, is on avx1Ops; no operand is an AVX-512 register, and
// VBROADCASTSD reads memory (its register form is AVX2); nor does any line
// hide an instruction in raw bytes.
func TestNoFusedAssembly(t *testing.T) {
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".s") {
			return err
		}
		file = filepath.ToSlash(file)
		if path.Dir(file) != "internal/tensor" {
			t.Errorf("%s: assembly outside internal/tensor", file)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		lines := strings.Split(string(src), "\n")
		macros := map[string]bool{}
		for _, line := range lines {
			if m := asmMacro.FindStringSubmatch(line); m != nil {
				macros[m[1]] = true
			}
		}
		for i, line := range lines {
			code, _, _ := strings.Cut(line, "//")
			if op := fusedOp.FindString(code); op != "" {
				t.Errorf("%s:%d: fused multiply-add %s", file, i+1, op)
			}
			if reg := avx512Reg.FindString(code); reg != "" {
				t.Errorf("%s:%d: AVX-512 register %s", file, i+1, reg)
			}
			code = strings.TrimSuffix(strings.TrimSpace(code[len(asmMacro.FindString(code)):]), "\\")
			for _, stmt := range strings.Split(code, ";") {
				f := strings.FieldsFunc(stmt, func(r rune) bool { return r == ' ' || r == '\t' || r == '(' || r == ',' })
				if len(f) == 0 || macros[f[0]] {
					continue
				}
				switch op := f[0]; {
				case op == "BYTE" || op == "WORD" || op == "LONG" || op == "QUAD":
					t.Errorf("%s:%d: raw instruction bytes %s", file, i+1, op)
				case op[0] == 'V' && !avx1Ops[op]:
					t.Errorf("%s:%d: %s is not on the AVX1 list", file, i+1, op)
				case op == "VBROADCASTSD" && !strings.Contains(strings.Split(stmt, ",")[0], "("):
					t.Errorf("%s:%d: VBROADCASTSD from a register is AVX2", file, i+1)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// strictMathAllow counts, per non-test file of a timeFree package, today's
// calls of the math functions whose bits depend on the host: on amd64 math.Exp
// takes a fused path when the CPU has AVX and FMA, Tanh calls Exp, and on arm64
// Exp is assembly and the pure-Go Log, Sin and Cos fuse (ROADMAP item 1). The
// list only shrinks: a strict package will replace these calls.
var strictMathAllow = map[string]int{
	"internal/data/generators.go math.Cos":       3,
	"internal/data/generators.go math.Exp":       1,
	"internal/data/generators.go math.Sin":       1,
	"internal/data/generators.go math.Tanh":      5,
	"internal/evaluator/evaluator.go math.Log10": 2,
	"internal/nn/loss.go math.Log":               1,
	"internal/nn/lstm.go math.Exp":               1,
	"internal/nn/lstm.go math.Tanh":              2,
	"internal/rl/controller.go math.Exp":         1,
	"internal/rl/controller.go math.Log":         4,
	"internal/rng/rng.go math.Log":               2,
	"internal/tensor/fused.go math.Exp":          1,
	"internal/tensor/fused.go math.Tanh":         1,
	"internal/tensor/ops.go math.Exp":            1,
}

// TestStrictMath: each non-test file of a timeFree package calls math.Exp,
// Tanh, Log, Log10, Sin and Cos exactly as often as strictMathAllow says, so a
// new call fails and a removed one must lower its entry. math.Pow is allowed
// only with its exponent written as an integer literal or a float64(...)
// conversion, the form an integer power takes (Adam's bias correction,
// balsam's backoff). Sqrt, Abs, Max, Floor and Ceil are exact and not counted.
func TestStrictMath(t *testing.T) {
	counted := map[string]bool{"Exp": true, "Tanh": true, "Log": true, "Log10": true, "Sin": true, "Cos": true}
	calls := map[string]int{}
	walkPkgs(t, timeFree, func(file string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "math" {
				return true
			}
			if counted[sel.Sel.Name] {
				calls[file+" math."+sel.Sel.Name]++
			}
			if sel.Sel.Name == "Pow" {
				integer := false
				switch e := call.Args[1].(type) {
				case *ast.BasicLit:
					integer = e.Kind == token.INT
				case *ast.CallExpr:
					id, ok := e.Fun.(*ast.Ident)
					integer = ok && id.Name == "float64"
				}
				if !integer {
					t.Errorf("%s: math.Pow with an exponent that is not an integer", file)
				}
			}
			return true
		})
	})
	for key := range strictMathAllow {
		calls[key] += 0
	}
	for key, n := range calls {
		if n != strictMathAllow[key] {
			t.Errorf("%s: %d calls, strictMathAllow lists %d: a result-deciding package calls host-dependent math only where it already did", key, n, strictMathAllow[key])
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
	"search.Config.MaxRetries":     "ROADMAP item 6 re-pin window",
	"rl.Config.Epochs":             "ROADMAP item 6 re-pin window",
	"rl.Config.Hidden":             "ROADMAP item 6 re-pin window",
	"evaluator.Config.NoArena":     "ROADMAP item 6 re-pin window",
	// Also in the tournament digest.
	"evaluator.Config.Epochs":  "ROADMAP item 6 re-pin window",
	"evaluator.Config.Timeout": "ROADMAP item 6 re-pin window",
	"evaluator.Config.RealLR":  "ROADMAP item 6 re-pin window",
	// Test seams.
	"data.ComboConfig.CellDim":  "unit tests generate small datasets",
	"data.ComboConfig.DrugDim":  "unit tests generate small datasets",
	"data.NT3Config.InputDim":   "unit tests generate small datasets",
	"data.NT3Config.NTrain":     "unit tests generate small datasets",
	"data.NT3Config.NVal":       "unit tests generate small datasets",
	"data.UnoConfig.NTrain":     "unit tests generate small datasets",
	"data.UnoConfig.NVal":       "unit tests generate small datasets",
	"fsim.Faults.WriteErrEvery": "fsim.FaultFS is a library driven by tests; ckpt and nasbench transient-I/O tests script EIO",
	"fsim.Faults.SyncErrEvery":  "fsim.FaultFS is a library driven by tests; ckpt's TestAtomicWriteSyncErrorKeepsTarget scripts fsync EIO",
	"fsim.Faults.DiskBudget":    "fsim.FaultFS is a library driven by tests; ckpt's ENOSPC test scripts a full disk",
}

var optionType = regexp.MustCompile(`(Config|Options)$|^Faults$|^Scale$`)

// TestOptions: every exported field of a struct type under internal/ named
// *Config, *Options, Faults or Scale must be set in some non-test file of the
// module outside examples/ and outside a withDefaults function, or be in
// optionAllow; no optionAllow entry may be set or gone. An option only its
// default sets is a constant. A composite-literal key sets the field of the
// literal's type — pkg.Type as written, a bare Type in its own package, the
// element type a slice, array or map literal lets a nested literal leave out
// — with type aliases (nasgo.go's) resolved, so a field of the same name in
// another option type keeps no dead field alive. A key `F: x.F`, where x is a
// parameter of the literal's own type, copies the field and sets nothing. An
// assignment `x.F =` names no type without a type checker and sets every
// option field named F: that half still under-reports, a ratchet against
// regrowth, not a type-checked pass.
func TestOptions(t *testing.T) {
	declared := map[string]string{} // "pkg.Type.Field" → field name
	type litKey struct {
		key    string // "pkg.Type.Field", type as written
		copyOf string // "pkg.Type" of x in a key F: x.F, as written
	}
	var keys []litKey
	assigned := map[string]bool{}  // field names set by x.F =
	aliases := map[string]string{} // "pkg.Alias" → "pkg.Type"
	walkGo(t, false, func(path string, f *ast.File) {
		internal := strings.HasPrefix(path, "internal/")
		imports := map[string]string{} // name in this file → package name
		for _, imp := range f.Imports {
			pkg := strings.Trim(imp.Path.Value, `"`)
			pkg = pkg[strings.LastIndex(pkg, "/")+1:]
			name := pkg
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = pkg
		}
		typeName := func(e ast.Expr) string {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return f.Name.Name + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		elided := map[*ast.CompositeLit]ast.Expr{} // a literal that leaves its type out → that type
		elide := func(e, typ ast.Expr) {
			if u, ok := e.(*ast.UnaryExpr); ok {
				e = u.X
			}
			if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil && typ != nil {
				elided[lit] = typ
			}
		}
		params := map[string]string{} // the enclosing function's parameter → type
		addParams := func(fields ...*ast.FieldList) {
			for _, fl := range fields {
				if fl == nil {
					continue
				}
				for _, field := range fl.List {
					for _, id := range field.Names {
						params[id.Name] = typeName(field.Type)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				params = map[string]string{}
				addParams(n.Recv, n.Type.Params)
				return !strings.EqualFold(n.Name.Name, "withDefaults")
			case *ast.FuncLit:
				addParams(n.Type.Params)
			case *ast.TypeSpec:
				if n.Assign.IsValid() {
					aliases[f.Name.Name+"."+n.Name.Name] = typeName(n.Type)
				}
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
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var keyType, elemType ast.Expr
				switch tt := typ.(type) {
				case *ast.ArrayType:
					elemType = tt.Elt
				case *ast.MapType:
					keyType, elemType = tt.Key, tt.Value
				}
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && elemType == nil {
							k := litKey{key: typeName(typ) + "." + id.Name}
							if sel, ok := kv.Value.(*ast.SelectorExpr); ok && sel.Sel.Name == id.Name {
								if x, ok := sel.X.(*ast.Ident); ok {
									k.copyOf = params[x.Name]
								}
							}
							keys = append(keys, k)
						}
						elide(kv.Key, keyType)
						el = kv.Value
					}
					elide(el, elemType)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	})
	resolve := func(typ string) string {
		for aliases[typ] != "" {
			typ = aliases[typ]
		}
		return typ
	}
	keyed := map[string]bool{}
	for _, k := range keys {
		i := strings.LastIndex(k.key, ".")
		if typ := resolve(k.key[:i]); k.copyOf == "" || resolve(k.copyOf) != typ {
			keyed[typ+k.key[i:]] = true
		}
	}
	for key, field := range declared {
		if _, ok := optionAllow[key]; !keyed[key] && !assigned[field] && !ok {
			t.Errorf("option %s is set by no production file: make it a constant, or add it to optionAllow with a reason", key)
		}
	}
	for key := range optionAllow {
		if field, ok := declared[key]; !ok || keyed[key] || assigned[field] {
			t.Errorf("optionAllow[%q] is stale: declared=%v set=%v", key, ok, keyed[key] || assigned[field])
		}
	}
}
