// Package ctxflow enforces the context-threading contract of
// DESIGN.md §9: a context enters the process at exactly one place —
// package main, or a test — and flows explicitly down every call
// chain. Fresh roots minted in library code (context.Background,
// context.TODO) detach the work below them from cancellation and
// deadlines, which is how a -deadline run ends up with recordings that
// outlive it.
//
// Three checks:
//
//  1. A call to context.Background()/context.TODO() outside package
//     main and _test.go files is flagged, unless it is one of the
//     recognized idioms below.
//  2. Inside a function that already receives a context.Context
//     parameter, minting a fresh root is flagged even in main — the
//     caller's context exists precisely to be passed on.
//  3. A call to a function F from a function that holds a
//     context.Context parameter is flagged when F has a sibling
//     FCtx accepting a context — recorded as a cross-package
//     "HasCtxVariant" fact when F's package is analyzed, so the check
//     sees variants through the import graph.
//
// Check 1 recognizes one clean idiom, the nil guard:
// `ctx = context.Background()` assigning over an existing context
// variable (the documented no-context fast path). A context-free shim
// F that mints a root to call its FCtx sibling is not exempt.
//
// Everything else needs a justified //lint:ignore ctxflow — the
// deliberately context-free whole-trace re-record in
// internal/tracecache carries one.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"branchlab/internal/lint/analysis"
)

// HasCtxVariant is exported for every function or method F that does
// not take a context itself but whose package declares a sibling
// F+"Ctx" (same receiver type) that does.
type HasCtxVariant struct {
	Variant string // the sibling's name, e.g. "RunCtx"
}

func (*HasCtxVariant) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "ctxflow",
	Doc:       "flags fresh context roots in library code and calls that bypass a callee's Ctx variant",
	Run:       run,
	FactTypes: []analysis.Fact{(*HasCtxVariant)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	exportVariantFacts(pass)
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
		checkFile(pass, file, isMain, isTest)
	}
	return nil, nil
}

// exportVariantFacts records a HasCtxVariant fact for every function
// that has a context-accepting Ctx sibling. Methods pair within the
// same receiver base type.
func exportVariantFacts(pass *analysis.Pass) {
	type key struct{ recv, name string }
	decls := make(map[key]*types.Func)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[key{recvBaseName(fn), fn.Name()}] = fn
		}
	}
	for k, fn := range decls {
		if strings.HasSuffix(k.name, "Ctx") || takesContext(fn) {
			continue
		}
		sibling, ok := decls[key{k.recv, k.name + "Ctx"}]
		if ok && takesContext(sibling) {
			pass.ExportObjectFact(fn, &HasCtxVariant{Variant: sibling.Name()})
		}
	}
}

func checkFile(pass *analysis.Pass, file *ast.File, isMain, isTest bool) {
	// Walk with an explicit stack so each call site knows its nearest
	// enclosing function (decl or literal).
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		hasCtx := enclosingHasContext(pass, stack)
		if name, fresh := freshRootCall(pass, call); fresh {
			switch {
			case nilGuardIdiom(pass, stack):
				// The `if ctx == nil { ctx = context.Background() }`
				// defaulting guard, with or without a context param.
			case hasCtx:
				pass.Reportf(call.Pos(), "context.%s() inside a function that already receives a context.Context: pass the parameter through (DESIGN.md §9)", name)
			case isMain || isTest:
				// Roots belong at the process edge.
			default:
				pass.Reportf(call.Pos(), "context.%s() in library code: thread a context from the caller, add a Ctx variant, or justify with //lint:ignore ctxflow (DESIGN.md §9)", name)
			}
			return true
		}
		if hasCtx {
			if callee := calleeFunc(pass, call); callee != nil && !takesContext(callee) {
				var fact HasCtxVariant
				if pass.ImportObjectFact(callee, &fact) {
					pass.Reportf(call.Pos(), "call to %s drops the context in scope: %s has a context variant %s (DESIGN.md §9)", callee.Name(), callee.Name(), fact.Variant)
				}
			}
		}
		return true
	})
}

// enclosingHasContext reports whether the nearest enclosing function
// declaration or literal on the stack has a context.Context parameter.
func enclosingHasContext(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return fieldListHasContext(pass, f.Type.Params)
		case *ast.FuncDecl:
			return fieldListHasContext(pass, f.Type.Params)
		}
	}
	return false
}

func fieldListHasContext(pass *analysis.Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, f := range params.List {
		if isContextType(pass.TypesInfo.Types[f.Type].Type) {
			return true
		}
	}
	return false
}

// freshRootCall reports whether call is context.Background() or
// context.TODO(), returning the function name.
func freshRootCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || !isContextPkg(fn.Pkg().Path()) {
		return "", false
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name, true
	}
	return "", false
}

// nilGuardIdiom reports whether the fresh root is the right-hand side
// of a plain assignment over an existing context variable — the
// `if ctx == nil { ctx = context.Background() }` defaulting guard.
func nilGuardIdiom(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			if s.Tok.String() != "=" || len(s.Lhs) != 1 {
				return false
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.TypesInfo.Uses[id]
			return obj != nil && isContextType(obj.Type())
		case ast.Stmt, *ast.FuncLit, *ast.FuncDecl:
			// Any other statement (or a function boundary) between the
			// call and an assignment means this is not the guard shape.
			_ = s
			return false
		}
	}
	return false
}

// calleeFunc resolves the static callee of a call, if any.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func recvBaseName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isContextType matches context.Context by name and package so the
// golden testdata's fake context package exercises the production
// path.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Context" && isContextPkg(named.Obj().Pkg().Path())
}

func isContextPkg(path string) bool {
	return path == "context" || strings.HasSuffix(path, "/context")
}
