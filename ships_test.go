// What ships: every exported name and every internal package must be
// reached by code that is not a test. The checks parse the source with
// go/parser alone, so they need no build, no type checker and no go list.
package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the root module's import path; perfbench is the nested
// module repro/perfbench, so its import paths share the prefix.
const modulePath = "repro"

// unusedExportAllowed names the exported declarations that no non-test file
// uses but that stay, each with its reason. A key is the package's import
// path, a dot and the name (Type.Method for a method).
var unusedExportAllowed = map[string]string{
	"repro/internal/obs.Lint":     "the exposition linter that the tests of obs and serve run against /metrics",
	"repro/internal/ita.EvalTree": "the independent aggregation-tree oracle that TestEvalTreePropMatchesSweep checks the ITA sweep against",
	"repro/internal/core.PTAe":    "the whole-series error-budget reference that tests in pta, dist and the root package compare the run-decomposed driver with",
}

// testOnlyPackages names the internal packages that only tests import,
// each with its reason; both checks exempt them.
var testOnlyPackages = map[string]string{
	"repro/internal/dist/disttest": "the in-process cluster fixture that the tests of dist run",
}

// shippedRoots are the import paths (or path prefixes ending in "/") whose
// import closure is what ships: the commands, the examples and the library.
var shippedRoots = []string{"repro/cmd/", "repro/examples/", "repro/pta"}

// sourcePackage is one directory's non-test Go files.
type sourcePackage struct {
	importPath string
	name       string
	files      []*ast.File
}

// parseModule parses every non-test .go file under the module root,
// perfbench included, skipping dot-directories and testdata.
func parseModule(t *testing.T) (*token.FileSet, map[string]*sourcePackage) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*sourcePackage{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		sp := pkgs[importPath]
		if sp == nil {
			sp = &sourcePackage{importPath: importPath, name: f.Name.Name}
			pkgs[importPath] = sp
		}
		sp.files = append(sp.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// exportedDecl is one exported top-level declaration and the source span
// that uses of its name must lie outside of.
type exportedDecl struct {
	key      string // import path + "." + name (Type.Method for methods)
	name     string
	file     *ast.File
	pos, end token.Pos
}

// exportedDecls lists the exported top-level funcs, methods, types, consts
// and vars of a package.
func exportedDecls(sp *sourcePackage) []exportedDecl {
	var out []exportedDecl
	add := func(f *ast.File, id *ast.Ident, qual string, span ast.Node) {
		if id.IsExported() {
			out = append(out, exportedDecl{
				key: sp.importPath + "." + qual + id.Name, name: id.Name,
				file: f, pos: span.Pos(), end: span.End(),
			})
		}
	}
	for _, f := range sp.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				qual := ""
				if d.Recv != nil {
					qual = receiverName(d.Recv.List[0].Type) + "."
				}
				add(f, d.Name, qual, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(f, s.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(f, id, "", s)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the base type name of a method receiver.
func receiverName(x ast.Expr) string {
	for {
		switch r := x.(type) {
		case *ast.StarExpr:
			x = r.X
		case *ast.IndexExpr:
			x = r.X
		case *ast.IndexListExpr:
			x = r.X
		case *ast.Ident:
			return r.Name
		default:
			return "?"
		}
	}
}

// identUse is one occurrence of an identifier in a non-test file.
type identUse struct {
	file *ast.File
	pos  token.Pos
}

// TestExportedNamesShip fails on any exported top-level declaration of a
// non-main package whose name no non-test file uses outside that
// declaration: a name that only tests reach is not part of what ships.
// Names match by spelling alone, so a method that shares its name with one
// in use elsewhere (Interval.Before and time.Time.Before) passes.
func TestExportedNamesShip(t *testing.T) {
	fset, pkgs := parseModule(t)
	uses := map[string][]identUse{}
	for _, sp := range pkgs {
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], identUse{f, id.Pos()})
				}
				return true
			})
		}
	}
	seen := map[string]bool{}
	var unused []exportedDecl
	for _, sp := range pkgs {
		if sp.name == "main" {
			continue
		}
		for _, d := range exportedDecls(sp) {
			seen[d.key] = true
			used := slices.ContainsFunc(uses[d.name], func(u identUse) bool {
				return u.file != d.file || u.pos < d.pos || u.pos >= d.end
			})
			_, allowed := unusedExportAllowed[d.key]
			_, pkgAllowed := testOnlyPackages[sp.importPath]
			switch {
			case used && allowed:
				t.Errorf("%s is used by non-test code now; drop it from unusedExportAllowed", d.key)
			case !used && !allowed && !pkgAllowed:
				unused = append(unused, d)
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	for _, d := range unused {
		t.Errorf("%s: %s is exported, but no non-test file uses it; delete it, move it into a _test.go file, or allow-list it with a reason",
			fset.Position(d.pos), d.key)
	}
	for key := range unusedExportAllowed {
		if !seen[key] {
			t.Errorf("unusedExportAllowed names %s, which is not an exported declaration", key)
		}
	}
	for p := range testOnlyPackages {
		if pkgs[p] == nil {
			t.Errorf("testOnlyPackages names %s, which is not a package", p)
		}
	}
}

// TestInternalPackagesShip fails on any internal package outside the import
// closure of the shipped roots (the commands, the examples and pta), as
// computed from the import specs of non-test files.
func TestInternalPackagesShip(t *testing.T) {
	_, pkgs := parseModule(t)
	reached := map[string]bool{}
	var queue []string
	for p := range pkgs {
		for _, root := range shippedRoots {
			if p == root || strings.HasSuffix(root, "/") && strings.HasPrefix(p, root) {
				queue = append(queue, p)
			}
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if reached[p] {
			continue
		}
		reached[p] = true
		for _, f := range pkgs[p].files {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if pkgs[imp] != nil && !reached[imp] {
					queue = append(queue, imp)
				}
			}
		}
	}
	var orphans []string
	for p := range pkgs {
		_, allowed := testOnlyPackages[p]
		switch {
		case allowed && reached[p]:
			t.Errorf("%s is imported by a shipped surface now; drop it from testOnlyPackages", p)
		case strings.HasPrefix(p, modulePath+"/internal/") && !reached[p] && !allowed:
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s: no command, example or pta imports it; delete it or make a shipped surface use it", p)
	}
}
