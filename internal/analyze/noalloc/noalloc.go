// Package noalloc defines the planarvet analyzer that polices the
// zero-allocation hot paths.
//
// The simulator's steady-state loops — the CONGEST round loop and its
// wake-timer heap, the planar face tracer, the DFS join deque, the
// triangulation builder — run millions of times per experiment and are
// written against epoch-stamped scratch arenas precisely so that the
// steady state allocates nothing. That property is load-bearing (it is what keeps the
// large-n benchmarks GC-quiet and the round loop's cost model honest) and
// it is trivially easy to lose: one innocent fmt.Sprintf in an error
// path, one closure capturing a loop variable, one map literal, and the
// allocator is back in the hot loop.
//
// A function annotated //planarvet:noalloc <GateTest> promises the
// steady-state-allocation-free discipline, and the analyzer enforces it
// syntactically: the body may contain no allocation site —
//
//   - make, new, or append calls,
//   - composite literals that escape (&T{...}, slice and map literals;
//     plain value struct literals stay on the stack and are fine),
//   - string concatenation or string↔[]byte/[]rune conversions,
//   - function literals (closure allocation),
//   - calls into fmt (interface boxing of the arguments).
//
// A site that is genuinely amortized or off the steady path (an append
// into recycled backing storage, an error-path construction that only
// runs when the run is already over) carries //planarvet:allocok <reason>.
//
// The syntactic check is necessary but not sufficient — escape analysis
// can still be defeated — so every noalloc annotation must name its
// runtime gate: the <GateTest> operand is a test function in the same
// package that measures the function with testing.AllocsPerRun. The
// analyzer cross-references the name, which keeps the static annotation
// and the runtime measurement from drifting apart.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"planardfs/internal/analyze/vetutil"
)

// Analyzer enforces //planarvet:noalloc function annotations.
var Analyzer = &analysis.Analyzer{
	Name:     "noalloc",
	Doc:      "functions annotated //planarvet:noalloc <GateTest> may contain no syntactic allocation site, and GateTest must measure them with testing.AllocsPerRun (per-site escape: //planarvet:allocok <reason>)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	dirs := vetutil.NewDirectives(pass)
	dirs.ReportBare(pass, "noalloc", "allocok")

	// Index the test functions of the package's test files once: gate
	// cross-referencing needs to know which ones call AllocsPerRun.
	gates := make(map[string]gateInfo)
	hasTestFiles := false
	for _, f := range pass.Files {
		if !strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		hasTestFiles = true
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			gates[fd.Name.Name] = gateInfo{found: true, callsAllocsPerRun: callsAllocsPerRun(fd.Body)}
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || vetutil.InTestFile(pass, fd.Pos()) {
			return
		}
		gate, ok := dirs.DeclReason(fd.Pos(), "noalloc", fd.Doc)
		if !ok {
			return
		}
		if gate != "" {
			checkGate(pass, fd, strings.Fields(gate)[0], gates, hasTestFiles)
		}
		checkBody(pass, dirs, fd)
	})
	return nil, nil
}

type gateInfo struct {
	found             bool
	callsAllocsPerRun bool
}

// callsAllocsPerRun reports whether the body contains a call to a method
// or function named AllocsPerRun (testing.AllocsPerRun in practice).
func callsAllocsPerRun(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
			found = true
			return false
		}
		return !found
	})
	return found
}

// checkGate verifies the named gate test exists in the package and
// measures with AllocsPerRun. Unitchecker may analyze a package variant
// without its test files; the check only runs when test files are in the
// pass, so it never false-positives on such variants.
func checkGate(pass *analysis.Pass, fd *ast.FuncDecl, gate string, gates map[string]gateInfo, hasTestFiles bool) {
	if !hasTestFiles {
		return
	}
	info := gates[gate]
	switch {
	case !info.found:
		pass.Reportf(fd.Pos(),
			"noalloc gate %s for %s not found: //planarvet:noalloc must name a test function in this package that measures it with testing.AllocsPerRun",
			gate, fd.Name.Name)
	case !info.callsAllocsPerRun:
		pass.Reportf(fd.Pos(),
			"noalloc gate %s for %s never calls testing.AllocsPerRun, so the zero-allocation claim has no runtime measurement",
			gate, fd.Name.Name)
	}
}

// checkBody flags every syntactic allocation site in a noalloc function.
func checkBody(pass *analysis.Pass, dirs *vetutil.Directives, fd *ast.FuncDecl) {
	name := fd.Name.Name
	report := func(pos token.Pos, what string) {
		if dirs.SuppressedAt(pos, "allocok") {
			return
		}
		pass.Reportf(pos,
			"%s in noalloc function %s: hoist into presized scratch storage, or annotate //planarvet:allocok <reason> if the site is amortized or off the steady path",
			what, name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			report(e.Pos(), "function literal (closure allocation)")
			return false // allocations inside run at the closure's call sites
		case *ast.CallExpr:
			return checkCall(pass, report, e)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if cl, ok := e.X.(*ast.CompositeLit); ok {
					report(e.Pos(), "escaping composite literal &"+types.ExprString(cl.Type)+"{...}")
					return false
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(e); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), "slice literal")
				case *types.Map:
					report(e.Pos(), "map literal")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(pass.TypesInfo.TypeOf(e)) {
				report(e.Pos(), "string concatenation")
			}
		}
		return true
	})
}

// checkCall classifies a call expression: allocating builtin, fmt call,
// or allocating string conversion. Returns whether to keep descending.
func checkCall(pass *analysis.Pass, report func(token.Pos, string), call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				report(call.Pos(), "call to "+b.Name())
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "call to fmt."+fun.Sel.Name+" (interface boxing)")
			}
		}
	}
	// Type conversions between string and []byte/[]rune copy the data.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.TypesInfo.TypeOf(call.Args[0])
		if src != nil {
			if isString(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isString(src) {
				report(call.Pos(), "string conversion "+types.ExprString(call.Fun)+"(...)")
			}
		}
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
