// Package blockalias flags code that retains a slice returned by a
// BlockStream's NextBlock method or a tracestore Pin's PinnedInsts
// method past its bounded lifetime — the zero-copy corruption bug
// class from the PR 3/4 block replay work, extended to the persistent
// store's mmap-backed pins.
//
// The trace.BlockStream contract: NextBlock hands out a window into
// shared backing storage (a cached trace's slice array, a generator's
// batch buffer) that is valid only until the next NextBlock call.
// The tracestore.Pin contract is the same bug with a longer fuse:
// PinnedInsts hands out a window into an mmap'd store file that may be
// read only until the pin's Unpin (the store releases the mapping's
// pages after its last pin and unmaps it at Close). Storing either slice
// anywhere that outlives the call site — a struct field, a channel, an
// element of a longer-lived slice or map, a package-level variable, a
// return value — aliases storage the stream will overwrite or the
// store will unmap, and the corruption shows up far away, as a
// byte-diff (or a fault) in a later replay.
//
// Matching is structural: any no-argument method named NextBlock or
// PinnedInsts returning a single slice is treated as a block source,
// which covers every trace.BlockStream implementation and
// tracestore.Pin without needing either type in scope. Functions
// themselves named NextBlock or PinnedInsts are exempt from the return
// check: block producers and pin accessors legitimately hand blocks out
// (the cache's view streams, the pin type itself).
//
// The fix is always one of: consume the block before the next call (or
// before the pin can be released), or copy it
// (append([]trace.Inst(nil), blk...)) before retaining.
package blockalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"branchlab/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "blockalias",
	Doc:  "flags retaining a NextBlock or PinnedInsts slice past its lifetime (zero-copy aliasing corruption)",
	Run:  run,
}

// sourceMethods are the no-arg one-slice-result methods whose results
// alias shared storage with a bounded lifetime.
var sourceMethods = map[string]bool{
	"NextBlock":   true, // valid until the next NextBlock call
	"PinnedInsts": true, // valid until the pin's Unpin
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
				return false
			}
			return true
		})
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Stream adapters named NextBlock and pin accessors named
	// PinnedInsts delegate blocks by design.
	isAdapter := sourceMethods[fd.Name.Name]

	blockVars := collectBlockVars(pass, fd)
	isBlock := func(e ast.Expr) bool { return isBlockExpr(pass, blockVars, e) }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isBlock(rhs) || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					report(pass, n.Pos(), "stored in a field")
				case *ast.IndexExpr:
					report(pass, n.Pos(), "stored in a map or slice element")
				case *ast.Ident:
					if obj := pass.TypesInfo.Uses[lhs]; obj != nil && isPackageLevel(obj) {
						report(pass, n.Pos(), "stored in a package-level variable")
					}
				case *ast.StarExpr:
					report(pass, n.Pos(), "stored through a pointer")
				}
			}
		case *ast.SendStmt:
			if isBlock(n.Value) {
				report(pass, n.Pos(), "sent on a channel")
			}
		case *ast.CallExpr:
			if isAppend(pass, n) && n.Ellipsis == token.NoPos {
				for _, arg := range n.Args[1:] {
					if isBlock(arg) {
						report(pass, n.Pos(), "appended as a whole block (append(dst, blk...) copies and is safe; append(dst, blk) aliases)")
					}
				}
			}
		case *ast.ReturnStmt:
			if isAdapter {
				return true
			}
			for _, res := range n.Results {
				if isBlock(res) {
					report(pass, n.Pos(), "returned to the caller")
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if isBlock(elt) {
					report(pass, n.Pos(), "stored in a composite literal")
				}
			}
		}
		return true
	})
}

func report(pass *analysis.Pass, pos token.Pos, how string) {
	pass.Reportf(pos,
		"block returned by NextBlock/PinnedInsts %s: the slice aliases shared trace storage with a bounded lifetime (the next NextBlock call overwrites it; closing a pin's store unmaps it); consume it first or copy it with append([]trace.Inst(nil), blk...)", how)
}

// collectBlockVars finds every variable bound (transitively, through
// plain assignments and reslicings) to a NextBlock result.
func collectBlockVars(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for {
		grew := false
		add := func(id *ast.Ident) {
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil && !vars[obj] {
				vars[obj] = true
				grew = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isBlockExpr(pass, vars, rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok {
							add(id)
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && isBlockExpr(pass, vars, v) {
						add(n.Names[i])
					}
				}
			}
			return true
		})
		if !grew {
			return vars
		}
	}
}

// isBlockExpr reports whether e evaluates to (a reslicing of) a
// NextBlock result or a variable holding one.
func isBlockExpr(pass *analysis.Pass, vars map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return vars[pass.TypesInfo.Uses[x]]
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.CallExpr:
			return isNextBlockCall(pass, x)
		default:
			return false
		}
	}
}

// isNextBlockCall matches a call of any method named NextBlock or
// PinnedInsts taking no arguments and returning one slice.
func isNextBlockCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !sourceMethods[sel.Sel.Name] {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	_, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice)
	return isSlice
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
