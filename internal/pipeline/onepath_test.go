package pipeline

import (
	"fmt"
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
//   - dfs.Build or dfs.BuildWithSeparator outside internal/dfs and
//     internal/pipeline;
//   - dist.DFSBuildOps, the Theorem 2 round tally, outside internal/dfs
//     (dfs.Trace.Ops);
//   - a type assertion to congest.AwerbuchNode, the extraction of the
//     token DFS's parents, outside internal/congest (congest.RunAwerbuch);
//
// and on every call that bypasses the one Theorem 1 path:
//   - weights.NewConfig outside internal/pipeline (NewConfig, the one
//     configuration builder), internal/weights and internal/separator
//     (Lemma 1's re-configuration of a virtual-edge graph).
func TestTheorem2HasOnePath(t *testing.T) {
	dfsPkg, distPkg, congestPkg := module+"/internal/dfs", module+"/internal/dist", module+"/internal/congest"
	weightsPkg, pipelinePkg := module+"/internal/weights", module+"/internal/pipeline"
	allowed := func(fn qualified, pkg string) bool {
		switch fn {
		case qualified{weightsPkg, "NewConfig"}:
			return pkg == pipelinePkg || pkg == weightsPkg || pkg == module+"/internal/separator"
		case qualified{dfsPkg, "Build"}, qualified{dfsPkg, "BuildWithSeparator"}:
			return pkg == dfsPkg || pkg == pipelinePkg
		case qualified{distPkg, "DFSBuildOps"}:
			return pkg == dfsPkg
		case qualified{congestPkg, "AwerbuchNode"}:
			return pkg == congestPkg
		}
		return true
	}

	fset := token.NewFileSet()
	walkModule(t, fset, false, func(rel string, f *ast.File) {
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
		imports := fileImports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			var e ast.Expr
			switch n := n.(type) {
			case *ast.CallExpr:
				e = n.Fun
			case *ast.TypeAssertExpr:
				e = n.Type
			default:
				return true
			}
			if fn, ok := resolve(e, imports, pkg); ok && !allowed(fn, pkg) {
				theorem := 2
				if fn.pkg == weightsPkg {
					theorem = 1
				}
				t.Errorf("%s: %s.%s bypasses the one Theorem %d path", fset.Position(n.Pos()), path.Base(fn.pkg), fn.name, theorem)
			}
			return true
		})
	})
}

// TestFacadeSeparatorsAreValidated fails if the facade (planardfs.go)
// names a raw Theorem 1 entry: separator.Find, FindWithOptions or
// ForSubset. Their output has passed no oracle, and the facade hands out
// only separators the engine registry has validated (FindCycleSeparator,
// and sepengine.Finder in the region entries).
func TestFacadeSeparatorsAreValidated(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "..", "planardfs.go"), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	sepPkg := module + "/internal/separator"
	imports := fileImports(f)
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch fn, _ := resolve(sel, imports, module); fn {
			case qualified{sepPkg, "Find"}, qualified{sepPkg, "FindWithOptions"}, qualified{sepPkg, "ForSubset"}:
				t.Errorf("%s: the facade names the unvalidated separator.%s", fset.Position(sel.Pos()), fn.name)
			}
		}
		return true
	})
}

// exportAllowlist holds the exported functions and methods of internal/
// that no production code calls, each with the reason it stays.
var exportAllowlist = map[string]string{
	"cert.CheckSpanningTree":          "reference oracle: the centralized side of the spanning-tree certification agreement tests",
	"cert.CheckBFSTree":               "reference oracle: the centralized BFS-layer check the chaos tests compare against",
	"cert.(*Verifier).CertifyBFSTree": "reference oracle: the distributed BFS-tree certification the chaos tests run",
	"guard.OracleTest":                "reference oracle: the sequential planarity test the distributed tester is compared against",
	"planar.(*Embedding).ECompatible": "reference oracle: brute-force edge compatibility over CompatibleInsertions, which the separator tests compare against",
	"separator.IsTPath":               "reference oracle: the T-path definition the separator tests check outputs against",
	"congest.NewAncestorSumNodes":     "node program; ROADMAP item 7 (message-level audit) decides its caller",
	"spanning.(*Tree).ReRoot":         "Lemma 19 re-rooting; ROADMAP item 9 decides whether the cut-vertex fix uses it",
	"chaos.(*Plan).InjectEdges":       "generator of the guard's adversarial corpus",
	"chaos.(*Plan).RetargetDarts":     "generator of the guard's adversarial corpus",
	"graph.(*Graph).Freeze":           "concurrency contract: freezes a graph shared by concurrent builds",
	"trace.(*Recorder).Gauge":         "read accessor of a facade-aliased type",
	"graph.Edge.Normalize":            "read accessor of a facade-aliased type",
	"planar.(*Embedding).NextCCW":     "read accessor of a facade-aliased type",
}

// TestEveryExportHasAProductionCaller fails on every exported function or
// method declared in non-test internal/ Go that no non-test file of the
// module (planardbench included) uses outside its own declaration, unless
// exportAllowlist names it or its file imports "testing". It also fails on
// an allowlist entry that gained a caller or no longer exists. A
// package-level function counts only qualified uses: pkg.Name through the
// file's import of its package, or a bare Name inside its own package, so a
// wrapper sharing a method's name needs callers of its own. A method
// matches by name, so it shares its callers with every same-named method.
// The scan is syntactic: a local that shadows a function's name counts as
// a use of it.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	// Methods the standard library calls through its interfaces.
	interfaceMethods := map[string]bool{"Unwrap": true, "MarshalJSON": true, "String": true, "Error": true}
	type decl struct {
		key, at  string
		use      qualified // the key its uses are under
		from, to token.Pos
	}
	var decls []decl
	// uses holds every identifier under {"", name}, the key a method
	// matches by, and every selector on an import and every bare name
	// under {import path, name}, the key a package-level function matches
	// by.
	uses := map[qualified][]token.Pos{}
	add := func(q qualified, p token.Pos) { uses[q] = append(uses[q], p) }
	fset := token.NewFileSet()
	walkModule(t, fset, true, func(rel string, f *ast.File) {
		pkgPath := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
		imports := fileImports(f)
		names := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				names[fd.Name] = true
			}
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// Inspect visits a selector before its Sel.
				sels[n.Sel] = true
				if q, ok := resolve(n, imports, pkgPath); ok {
					add(q, n.Sel.Pos())
				}
			case *ast.Ident:
				if names[n] {
					break
				}
				add(qualified{"", n.Name}, n.Pos())
				if !sels[n] {
					add(qualified{pkgPath, n.Name}, n.Pos())
				}
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(rel), "internal/") || importsTesting(f) {
			return
		}
		pkg := f.Name.Name
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || interfaceMethods[fd.Name.Name] {
				continue
			}
			key, use := pkg+"."+fd.Name.Name, qualified{pkgPath, fd.Name.Name}
			if fd.Recv != nil {
				key, use = pkg+"."+receiverName(fd.Recv.List[0].Type)+"."+fd.Name.Name, qualified{"", fd.Name.Name}
			}
			at := fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(fd.Pos()).Line)
			decls = append(decls, decl{key, at, use, fd.Pos(), fd.End()})
		}
	})
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		called := false
		for _, p := range uses[d.use] {
			if p < d.from || p >= d.to {
				called = true
				break
			}
		}
		_, allowed := exportAllowlist[d.key]
		switch {
		case !called && !allowed:
			t.Errorf("%s: %s has no production caller", d.at, d.key)
		case called && allowed:
			t.Errorf("%s: allow-listed %s has a production caller; drop it from exportAllowlist", d.at, d.key)
		}
	}
	for key := range exportAllowlist {
		if !seen[key] {
			t.Errorf("allow-listed %s no longer exists; drop it from exportAllowlist", key)
		}
	}
}

// fileImports maps each name f imports a package under to its import
// path.
func fileImports(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		ip, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(ip)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = ip
	}
	return imports
}

// importsTesting reports whether f imports "testing": a test-support
// file, such as a fixture runner, whose exports serve tests by design.
func importsTesting(f *ast.File) bool {
	for _, im := range f.Imports {
		if im.Path.Value == `"testing"` {
			return true
		}
	}
	return false
}

// receiverName spells a method's receiver type as T or (*T).
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "(*" + receiverName(e.X) + ")"
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

const module = "planardfs"

// walkModule parses every non-test Go file of the module outside
// third_party and testdata, and outside the frozen planardbench module
// unless withBench is set, and hands each to visit with its path relative
// to the module root.
func walkModule(t *testing.T, fset *token.FileSet, withBench bool, visit func(rel string, f *ast.File)) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	scanned := 0
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			switch d.Name() {
			case "third_party", "testdata":
				return filepath.SkipDir
			case "planardbench":
				if !withBench {
					return filepath.SkipDir
				}
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
		visit(rel, f)
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
