package protocols

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// oracleRead is one place where protocol code asks the experimenter's
// runtime.Observer (proto.Env.Oracle) instead of its runtime.Net.
type oracleRead struct{ file, fn, method string }

// pinnedOracleReads is every such read. The decisions are where a
// simulated peer knows more than a deployed one could; the measurements
// price a query for the paper's metrics.
var pinnedOracleReads = []oracleRead{
	// Decisions.
	{"flower/system.go", "gateway", "Alive"},
	{"flower/query.go", "summaryCands", "Latency"},
	{"flower/directory.go", "rankProviders", "Latency"},
	{"flower/query.go", "probeCandidate", "Latency"},
	{"baseline/ringdir.go", "enterRing", "Alive"},
	{"baseline/ringdir.go", "probeProvider", "Latency"},
	// Measurements.
	{"flower/system.go", "DirectoryCount", "Alive"},
	{"flower/query.go", "resolve", "Latency"},
	{"baseline/ringdir.go", "resolve", "Latency"},
	{"baseline/originonly.go", "Query", "Latency"},
}

// TestOracleReadsArePinned lists every read of the oracle in the
// protocol packages' non-test files — a call or method value
// X.Alive/Locality/Latency where X is named Oracle (the proto.Env field)
// or oracle (flower's copy of it) — and holds it to the pinned list.
// The substrates read none, no package names runtime.Transport, and
// only the field that keeps Env.Oracle names runtime.Observer, so there
// is no other way to reach the oracle than the reads listed here.
func TestOracleReadsArePinned(t *testing.T) {
	var got []oracleRead
	fset := token.NewFileSet()
	eachSource(t, fset, []string{"flower", "baseline", "squirrel", "chord", "koorde", "gossip"},
		func(pkg, file string, f *ast.File) {
			for _, decl := range f.Decls {
				fn, _ := decl.(*ast.FuncDecl)
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if lastName(sel.X) == "runtime" && sel.Sel.Name == "Transport" {
						t.Errorf("%s: names runtime.Transport; protocol code holds runtime.Net", fset.Position(sel.Pos()))
					}
					if lastName(sel.X) == "runtime" && sel.Sel.Name == "Observer" && file != "flower/system.go" {
						t.Errorf("%s: names runtime.Observer; read proto.Env.Oracle instead", fset.Position(sel.Pos()))
					}
					switch sel.Sel.Name {
					case "Alive", "Locality", "Latency":
					default:
						return true
					}
					if x := lastName(sel.X); x != "Oracle" && x != "oracle" {
						return true
					}
					if fn == nil {
						t.Errorf("%s: oracle read outside a function", fset.Position(sel.Pos()))
						return true
					}
					read := oracleRead{file, fn.Name.Name, sel.Sel.Name}
					switch {
					case pkg == "chord" || pkg == "koorde" || pkg == "gossip":
						t.Errorf("%s: %s reads the oracle; the substrates must reach none", fset.Position(sel.Pos()), pkg)
					case !slices.Contains(pinnedOracleReads, read):
						t.Errorf("%s: unpinned oracle read %s in %s", fset.Position(sel.Pos()), sel.Sel.Name, fn.Name.Name)
					}
					got = append(got, read)
					return true
				})
			}
		})
	want := slices.Clone(pinnedOracleReads)
	for _, reads := range [][]oracleRead{got, want} {
		slices.SortFunc(reads, func(a, b oracleRead) int {
			return strings.Compare(a.file+" "+a.fn+" "+a.method, b.file+" "+b.fn+" "+b.method)
		})
	}
	if !slices.Equal(got, want) {
		t.Errorf("oracle reads\n  %v\nwant exactly the pinned\n  %v", got, want)
	}
}

// eachSource parses the non-test Go files of each named internal
// package and hands every one to fn, with its name as pkg/file.go.
func eachSource(t *testing.T, fset *token.FileSet, pkgs []string, fn func(pkg, file string, f *ast.File)) {
	t.Helper()
	for _, pkg := range pkgs {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("package %s: no sources (%v)", pkg, err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			fn(pkg, pkg+"/"+filepath.Base(path), f)
		}
	}
}

// lastName is the rightmost identifier of x (env.Oracle → Oracle).
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
