package nasgo

import (
	"encoding/json"
	"go/ast"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// docsAllow maps each token of DESIGN.md, CLAUDE.md, README.md or
// EXPERIMENTS.md that TestDocs would reject to the reason it is not a dangling reference.
var docsAllow = map[string]string{
	"bench_results/nasbench": "gitignored: the tournament's rebuildable table and WAL artifacts",
	"search.ckpt":            "a file name in the campaign store, not an identifier of package search",
	"TestShort":              "prefix of the fast-tier determinism pins (check.sh -run 'TestShort|TestPool')",
}

var (
	docSpan = regexp.MustCompile("`([^`]+)`")
	docPath = regexp.MustCompile(`^(internal|cmd|examples|scripts|bench_results)/[^<>*{}…]+$`)
	docName = regexp.MustCompile(`(^|[^\w./-])([a-z]+)((?:\.[A-Za-z_]\w*)+)`)
	docTest = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*\*?`)
)

// TestDocs holds the prose to live code. In DESIGN.md, CLAUDE.md, README.md and
// EXPERIMENTS.md every backticked (or fenced) word that is a repository path must exist;
// every backticked pkg.Name — pkg a directory under internal/ — must be
// declared in that package, unless it is a BENCHMARK.json ledger row; and
// every Test…/Fuzz… name anywhere in the text must be a function in some
// _test.go (a trailing * makes it a prefix). Like TestSurface it matches by
// name with go/parser, not by type: pkg.A.B passes when the package declares
// an A and a B somewhere (fields, methods and parameters included).
func TestDocs(t *testing.T) {
	declared, tests := map[string]map[string]bool{}, map[string]bool{}
	walkGo(t, true, func(file string, f *ast.File) {
		if strings.HasSuffix(file, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					tests[fn.Name.Name] = true
				}
			}
			return
		}
		pkg, internal := strings.CutPrefix(path.Dir(file), "internal/")
		if !internal {
			return
		}
		names := declared[pkg]
		if names == nil {
			names = map[string]bool{}
			declared[pkg] = names
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
			return true
		})
	})
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	ledgerRow := map[string]bool{}
	for _, row := range contract.PerLayer {
		ledgerRow[row.Name] = true
	}

	allowed := map[string]bool{}
	allow := func(token string) bool {
		_, ok := docsAllow[token]
		if ok {
			allowed[token] = true
		}
		return ok
	}
	for _, doc := range []string{"DESIGN.md", "CLAUDE.md", "README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range docTest.FindAllString(line, -1) {
				ok := tests[name]
				if prefix, star := strings.CutSuffix(name, "*"); star {
					for fn := range tests {
						ok = ok || strings.HasPrefix(fn, prefix)
					}
				}
				if !ok && !allow(name) {
					t.Errorf("%s:%d: %s is not a function in any _test.go", doc, i+1, name)
				}
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			spans := []string{line} // a fenced line is one span
			if !fenced {
				spans = spans[:0]
				for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
					spans = append(spans, m[1])
				}
			}
			for _, span := range spans {
				for _, word := range strings.Fields(span) {
					word = strings.TrimRight(strings.TrimPrefix(word, "./"), "/.,;:)")
					if docPath.MatchString(word) && !allow(word) {
						if _, err := os.Stat(word); err != nil {
							t.Errorf("%s:%d: path %s does not exist", doc, i+1, word)
						}
					}
				}
				for _, m := range docName.FindAllStringSubmatch(span, -1) {
					pkg, ref := m[2], m[2]+m[3]
					if declared[pkg] == nil || ledgerRow[ref] || allow(ref) {
						continue
					}
					for _, name := range strings.Split(m[3][1:], ".") {
						if !declared[pkg][name] {
							t.Errorf("%s:%d: %s: package internal/%s declares no %s", doc, i+1, ref, pkg, name)
						}
					}
				}
			}
		}
	}
	for token := range docsAllow {
		if !allowed[token] {
			t.Errorf("docsAllow[%q] is stale: no document needs it", token)
		}
	}
}
