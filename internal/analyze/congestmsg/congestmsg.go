// Package congestmsg defines the planarvet analyzer that bounds what can
// travel through the CONGEST message interface.
//
// The paper's round bounds assume O(log n)-bit messages: a message is a
// kind tag plus a handful of word-sized arguments, and the simulator
// enforces the word budget at runtime (congest.Network.MaxWords). The
// typed payload layer (congest.Payload and congest.Unpack) makes node
// programs declare message bodies as structs — and that is where unbounded
// data could sneak in statically: a string, slice, map or interface field
// has no a-priori word bound, so a payload carrying one would either blow
// the runtime check on large inputs or, worse, tempt someone to raise
// MaxWords and invalidate every round count the repo reports.
//
// The analyzer finds every named type whose method set satisfies the
// Payload contract (AppendWords(dst []int) []int, LoadWords(words []int) —
// matched structurally, so it also works in packages that do not import
// internal/congest) and rejects fields whose type cannot be bounded by a
// fixed number of words: slices, maps, strings, interfaces, channels,
// function values, pointers, floats and complex numbers. Fixed-size
// arrays and nested structs of bounded fields are fine. A type may be
// whitelisted with //planarvet:congestpayload <reason> in its doc
// comment when the bound holds for a non-structural reason.
package congestmsg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"planardfs/internal/analyze/vetutil"
)

// Analyzer rejects unbounded field types in CONGEST message payloads.
var Analyzer = &analysis.Analyzer{
	Name:     "congestmsg",
	Doc:      "reject slice/map/string/interface/pointer fields in congest.Payload implementations; CONGEST messages are O(log n)-bit (suppress with //planarvet:congestpayload <reason>)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// payloadIface is the congest.Payload contract, built structurally so the
// analyzer needs no import of internal/congest (and testdata stubs match).
var payloadIface = func() *types.Interface {
	intSlice := types.NewSlice(types.Typ[types.Int])
	param := func(name string, t types.Type) *types.Tuple {
		return types.NewTuple(types.NewVar(token.NoPos, nil, name, t))
	}
	appendWords := types.NewFunc(token.NoPos, nil, "AppendWords",
		types.NewSignatureType(nil, nil, nil, param("dst", intSlice), param("", intSlice), false))
	loadWords := types.NewFunc(token.NoPos, nil, "LoadWords",
		types.NewSignatureType(nil, nil, nil, param("words", intSlice), nil, false))
	iface := types.NewInterfaceType([]*types.Func{appendWords, loadWords}, nil)
	iface.Complete()
	return iface
}()

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := vetutil.NewDirectives(pass)
	dirs.ReportBare(pass, "congestpayload")
	ins.WithStack([]ast.Node{(*ast.TypeSpec)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		ts := n.(*ast.TypeSpec)
		if vetutil.InTestFile(pass, ts.Pos()) {
			return false
		}
		obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
		if !ok {
			return false
		}
		t := obj.Type()
		if types.IsInterface(t) {
			return false // the Payload interface itself, or a superset of it
		}
		if !types.Implements(t, payloadIface) && !types.Implements(types.NewPointer(t), payloadIface) {
			return false
		}
		var genDoc *ast.CommentGroup
		if gd, ok := stack[len(stack)-2].(*ast.GenDecl); ok {
			genDoc = gd.Doc
		}
		if dirs.SuppressedDecl(ts.Pos(), "congestpayload", ts.Doc, genDoc) {
			return false
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, f := range st.Fields.List {
				ft := pass.TypesInfo.TypeOf(f.Type)
				if ft == nil {
					continue
				}
				if bad := unboundedComponent(ft, nil); bad != nil {
					desc := fmt.Sprintf("of type %s", bad)
					if !types.Identical(bad, ft) {
						desc = fmt.Sprintf("whose type contains %s", bad)
					}
					pass.Reportf(f.Pos(),
						"congest payload %s carries %s %s, which has no O(log n)-bit word bound; use fixed-width integer fields, or annotate the type //planarvet:congestpayload <reason>",
						ts.Name.Name, fieldLabel(f), desc)
				}
			}
			return false
		}
		if bad := unboundedComponent(obj.Type(), nil); bad != nil {
			pass.Reportf(ts.Pos(),
				"congest payload %s has underlying type %s, which has no O(log n)-bit word bound; use a struct of fixed-width integer fields, or annotate //planarvet:congestpayload <reason>",
				ts.Name.Name, bad)
		}
		return false
	})
	return nil, nil
}

func fieldLabel(f *ast.Field) string {
	if len(f.Names) == 0 {
		return "an embedded field"
	}
	return fmt.Sprintf("field %s", f.Names[0].Name)
}

// unboundedComponent returns the first component type of t that cannot be
// bounded by a fixed number of CONGEST words, or nil if every component is
// a fixed-width integer, bool, fixed-size array or struct thereof.
func unboundedComponent(t types.Type, seen map[types.Type]bool) types.Type {
	if seen[t] {
		return nil
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&(types.IsInteger|types.IsBoolean) != 0 {
			return nil
		}
		return t
	case *types.Array:
		return unboundedComponent(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if bad := unboundedComponent(u.Field(i).Type(), seen); bad != nil {
				return bad
			}
		}
		return nil
	default:
		// slices, maps, strings, interfaces, pointers, chans, funcs
		return t
	}
}
