package protocols

import (
	"go/ast"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// pinnedOptionKeys is every proto.Options key a driver reads. Keys
// nobody reads are ignored by design — one option set serves every
// protocol of a sweep — so a key that stops being read just stops
// working, silently; this list is what makes adding or retiring one a
// deliberate act.
var pinnedOptionKeys = []string{
	"cache-capacity",
	"cache-policy",
	"chord-demo",
	"dir-collaboration",
	"exact-summaries",
	"gossip-period",
	"keepalive-interval",
	"load-limit",
	"push-threshold",
	"query-timeout",
	"seed-retry-delay",
}

// optionGetters are proto.Options' typed getters: each takes the key
// and a default.
var optionGetters = []string{"Int", "Duration", "Float", "Bool", "String"}

// TestOptionKeysArePinned lists every key the driver packages' non-test
// files pass to a proto.Options getter — a string literal or one of
// proto's Opt* constants — and holds the set to the pinned one. A
// getter called on opts with any other key expression fails: a key
// computed at run time is a key this test cannot see.
func TestOptionKeysArePinned(t *testing.T) {
	pkgs := []string{"flower", "baseline", "squirrel", "koorde", "proto"}
	fset := token.NewFileSet()
	var files []*ast.File
	consts := map[string]string{} // Opt* constant → key
	eachSource(t, fset, pkgs, func(_, _ string, f *ast.File) {
		files = append(files, f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Opt") || i >= len(vs.Values) {
						continue
					}
					if key, ok := stringLit(vs.Values[i]); ok {
						consts[name.Name] = key
					}
				}
			}
		}
	})
	var got []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !slices.Contains(optionGetters, sel.Sel.Name) {
				return true
			}
			key, lit := stringLit(call.Args[0])
			if !lit {
				key, lit = consts[lastName(call.Args[0])]
			}
			switch {
			case lit:
				if !slices.Contains(got, key) {
					got = append(got, key)
				}
			case lastName(sel.X) == "opts":
				t.Errorf("%s: option key is neither a string literal nor an Opt* constant", fset.Position(call.Args[0].Pos()))
			}
			return true
		})
	}
	slices.Sort(got)
	if want := slices.Sorted(slices.Values(pinnedOptionKeys)); !slices.Equal(got, want) {
		t.Errorf("drivers read the option keys\n  %v\nwant exactly the pinned\n  %v", got, want)
	}
}

// stringLit returns the value of a string literal expression.
func stringLit(x ast.Expr) (string, bool) {
	lit, ok := x.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
