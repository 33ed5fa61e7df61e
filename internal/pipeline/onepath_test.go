package pipeline

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTheorem2HasOnePath scans the module's non-test Go files, outside the
// frozen planardbench module and third_party, and fails on every call that
// bypasses the one Theorem 2 path:
//   - dfs.Build or dfs.BuildWithSeparator outside internal/dfs,
//     internal/pipeline and the facade's BuildDFSTree;
//   - dist.DFSBuildOps, the Theorem 2 round tally, outside internal/dfs
//     (dfs.Trace.Ops);
//   - a type assertion to congest.AwerbuchNode, the extraction of the
//     token DFS's parents, outside internal/congest (congest.RunAwerbuch).
func TestTheorem2HasOnePath(t *testing.T) {
	const module = "planardfs"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	dfsPkg, distPkg, congestPkg := module+"/internal/dfs", module+"/internal/dist", module+"/internal/congest"
	allowed := func(fn qualified, pkg, funcName string) bool {
		switch fn {
		case qualified{dfsPkg, "Build"}, qualified{dfsPkg, "BuildWithSeparator"}:
			return pkg == dfsPkg || pkg == module+"/internal/pipeline" || (pkg == module && funcName == "BuildDFSTree")
		case qualified{distPkg, "DFSBuildOps"}:
			return pkg == dfsPkg
		case qualified{congestPkg, "AwerbuchNode"}:
			return pkg == congestPkg
		}
		return true
	}

	fset := token.NewFileSet()
	scanned := 0
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			switch d.Name() {
			case "planardbench", "third_party", "testdata":
				return filepath.SkipDir
			}
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
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
		scanned++
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		for _, decl := range f.Decls {
			funcName := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcName = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var e ast.Expr
				switch n := n.(type) {
				case *ast.CallExpr:
					e = n.Fun
				case *ast.TypeAssertExpr:
					e = n.Type
				default:
					return true
				}
				if fn, ok := resolve(e, imports, pkg); ok && !allowed(fn, pkg, funcName) {
					t.Errorf("%s: %s.%s bypasses the one Theorem 2 path", fset.Position(n.Pos()), path.Base(fn.pkg), fn.name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Fatalf("scanned only %d files under %s", scanned, root)
	}
}

// qualified names a package-level function or type by import path.
type qualified struct{ pkg, name string }

// resolve names the function or type e refers to: a selector on an
// imported package, a bare identifier of the file's own package pkg, or
// a pointer to either.
func resolve(e ast.Expr, imports map[string]string, pkg string) (qualified, bool) {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
			return qualified{imports[x.Name], e.Sel.Name}, true
		}
	case *ast.Ident:
		return qualified{pkg, e.Name}, true
	case *ast.StarExpr:
		return resolve(e.X, imports, pkg)
	}
	return qualified{}, false
}
