// Package errcontract enforces the error-surface contract of
// DESIGN.md §8: the library layers (program, tracecache, tracestore,
// engine, xrand) report failures as error values, never as panics
// reachable from caller-controlled input, and callers discriminate
// errors with errors.Is — not pointer identity, not string matching.
//
// Two independent checks:
//
//  1. Input-dependent panics. A panic is input-dependent when its
//     argument, or any enclosing branch condition, derives from the
//     function's parameters or receiver (the intra-function Taint
//     engine decides "derives"). The property propagates
//     interprocedurally as a "MayPanic" fact: a function that forwards
//     tainted data into a may-panic callee may itself panic on its
//     input, across package boundaries. Diagnostics fire only on
//     exported functions of the target packages; internal helpers may
//     panic freely as long as no exported path reaches them.
//
//     A function whose body calls recover() absorbs the property — it
//     is its own panic boundary. A //lint:ignore errcontract on the
//     panic (or call) line suppresses the site and stops propagation,
//     so one justified suppression at a deliberate escalation point
//     (program's typed payload unwinds, the trace cache's re-record
//     invariant) keeps every transitive caller clean.
//
//  2. Sentinel discrimination. Comparing an error against a
//     package-level sentinel with == or !=, or matching on the
//     Error() string (== or strings.Contains and friends), breaks as
//     soon as anyone wraps the error; errors.Is is the contract.
//     This check applies everywhere, tests included — tests are where
//     the bad idiom breeds.
//
// Soundness follows the Taint engine's over-approximations
// (dataflow.go): a panic guarded by a condition that merely mentions a
// parameter is input-dependent even if unreachable; panics hidden
// behind interface dispatch or function values are missed.
package errcontract

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"branchlab/internal/lint/analysis"
)

// MayPanic marks a function that may panic on a path dependent on its
// parameters or receiver. At is the source position of the originating
// panic, carried through propagation as the witness.
type MayPanic struct {
	At string
}

func (*MayPanic) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "errcontract",
	Doc:       "flags exported library functions that may panic on input-dependent paths, and ==/string comparisons of sentinel errors",
	Run:       run,
	FactTypes: []analysis.Fact{(*MayPanic)(nil)},
}

// targetBases are the package basenames whose exported surface must be
// panic-free; sentinel checks apply to every package.
var targetBases = map[string]bool{
	"program":    true,
	"tracecache": true,
	"tracestore": true,
	"engine":     true,
	"xrand":      true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	checkSentinels(pass)
	checkPanics(pass)
	return nil, nil
}

// --- check 1: input-dependent panics ---

type funcInfo struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	taint   *analysis.Taint
	absorbs bool // body calls recover(): its own panic boundary
}

func checkPanics(pass *analysis.Pass) {
	var funcs []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{fn: fn, decl: fd, absorbs: callsRecover(pass, fd.Body)}
			fi.taint = analysis.NewTaint(pass.TypesInfo)
			fi.taint.Seed(inputObjects(pass, fd)...)
			fi.taint.Analyze(fd.Body)
			funcs = append(funcs, fi)
			byObj[fn] = fi
		}
	}

	// Fixpoint: a function becomes may-panic when it contains an
	// unsuppressed input-dependent panic, or forwards tainted data into
	// a may-panic callee (local or via an imported fact).
	mayPanic := make(map[*types.Func]string) // witness position
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if fi.absorbs {
				continue
			}
			if _, done := mayPanic[fi.fn]; done {
				continue
			}
			if at, found := scanPanicSites(pass, fi, byObj, mayPanic); found {
				mayPanic[fi.fn] = at
				changed = true
			}
		}
	}

	for fn, at := range mayPanic {
		pass.ExportObjectFact(fn, &MayPanic{At: at})
	}

	if !targetBases[pathBase(pass.Pkg.Path())] {
		return
	}
	for _, fi := range funcs {
		at, found := mayPanic[fi.fn]
		if !found || !exportedSurface(fi.decl) {
			continue
		}
		if isTestFile(pass, fi.decl.Pos()) {
			continue
		}
		pass.Reportf(fi.decl.Name.Pos(),
			"exported %s may panic on an input-dependent path (panic at %s): return an error, or justify the panic site with //lint:ignore errcontract (DESIGN.md §8)",
			fi.fn.Name(), at)
	}
}

// scanPanicSites walks one function body looking for a reachable
// input-dependent panic: a direct panic(...) whose argument or
// enclosing conditions are tainted, or a call forwarding tainted data
// into a may-panic callee. Suppressed sites are skipped — the
// suppression both silences the site and stops propagation.
func scanPanicSites(pass *analysis.Pass, fi *funcInfo,
	byObj map[*types.Func]*funcInfo, mayPanic map[*types.Func]string) (string, bool) {

	var at string
	found := false
	var stack []ast.Node
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanicCall(pass, call) {
			if pass.SuppressedAt(call.Pos()) {
				return true
			}
			arg := ast.Expr(nil)
			if len(call.Args) == 1 {
				arg = call.Args[0]
			}
			if fi.taint.Tainted(arg) || condsTainted(fi.taint, stack) {
				at = pass.Fset.Position(call.Pos()).String()
				found = true
			}
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		witness, panics := mayPanic[callee]
		if !panics {
			if _, isLocal := byObj[callee]; !isLocal {
				var fact MayPanic
				if pass.ImportObjectFact(callee, &fact) {
					witness, panics = fact.At, true
				}
			}
		}
		if !panics || pass.SuppressedAt(call.Pos()) {
			return true
		}
		if anyInputTainted(fi.taint, call) {
			at = witness
			found = true
		}
		return true
	})
	return at, found
}

// anyInputTainted reports whether the call forwards tainted data: an
// argument or the method receiver expression.
func anyInputTainted(t *analysis.Taint, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if t.Tainted(a) {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && t.Tainted(sel.X) {
		return true
	}
	return false
}

// condsTainted reports whether any enclosing branch condition on the
// stack derives from the seeds: the `if n < 0 { panic(...) }` shape.
func condsTainted(t *analysis.Taint, stack []ast.Node) bool {
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.IfStmt:
			if t.Tainted(s.Cond) {
				return true
			}
		case *ast.ForStmt:
			if t.Tainted(s.Cond) {
				return true
			}
		case *ast.SwitchStmt:
			if t.Tainted(s.Tag) {
				return true
			}
		case *ast.RangeStmt:
			if t.Tainted(s.X) {
				return true
			}
		}
	}
	return false
}

// inputObjects collects the taint seeds of a declaration: named
// parameters and the receiver.
func inputObjects(pass *analysis.Pass, fd *ast.FuncDecl) []types.Object {
	var objs []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					objs = append(objs, obj)
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return objs
}

func callsRecover(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				found = true
			}
		}
		return !found
	})
	return found
}

func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

// exportedSurface reports whether the declaration is callable from
// outside the package: an exported function, or an exported method on
// an exported type.
func exportedSurface(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// --- check 2: sentinel discrimination ---

func checkSentinels(pass *analysis.Pass) {
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if inErrorsIsMethod(pass, stack) {
					// An Is(target error) bool method IS the errors.Is
					// protocol: identity comparison is its implementation.
					return true
				}
				if sent := sentinelOperand(pass, n.X, n.Y); sent != "" {
					pass.Reportf(n.Pos(), "compare against sentinel %s with errors.Is, not %s (wrapping breaks identity; DESIGN.md §8)", sent, n.Op)
					return true
				}
				if isEmptyString(pass, n.X) || isEmptyString(pass, n.Y) {
					// err.Error() == "" asserts a message exists; it does
					// not discriminate between errors.
					return true
				}
				if errorStringOperand(pass, n.X) || errorStringOperand(pass, n.Y) {
					pass.Reportf(n.Pos(), "match errors with errors.Is/errors.As, not by comparing Error() strings (DESIGN.md §8)")
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil &&
					pathBase(fn.Pkg().Path()) == "strings" && stringMatchers[fn.Name()] {
					for _, a := range n.Args {
						if errorStringOperand(pass, a) {
							pass.Reportf(n.Pos(), "match errors with errors.Is/errors.As, not strings.%s on Error() output (DESIGN.md §8)", fn.Name())
							break
						}
					}
				}
			}
			return true
		})
	}
}

var stringMatchers = map[string]bool{
	"Contains": true, "HasPrefix": true, "HasSuffix": true, "EqualFold": true,
}

// inErrorsIsMethod reports whether the innermost enclosing function on
// the stack is a method implementing the errors.Is protocol:
// func (T) Is(target error) bool. A nested function literal is not.
func inErrorsIsMethod(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.FuncDecl:
			fn, ok := pass.TypesInfo.Defs[f.Name].(*types.Func)
			if !ok || f.Recv == nil || fn.Name() != "Is" {
				return false
			}
			sig := fn.Type().(*types.Signature)
			return sig.Params().Len() == 1 && isErrorType(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 1 &&
				sig.Results().At(0).Type() == types.Typ[types.Bool]
		}
	}
	return false
}

// isEmptyString reports whether e is the literal "".
func isEmptyString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && tv.Value != nil && tv.Value.ExactString() == `""`
}

// sentinelOperand returns the printed form of whichever operand is a
// package-level error variable (a sentinel), if the other operand is
// error-typed and not the nil literal.
func sentinelOperand(pass *analysis.Pass, x, y ast.Expr) string {
	if name := sentinelName(pass, x); name != "" && !isNilExpr(pass, y) {
		return name
	}
	if name := sentinelName(pass, y); name != "" && !isNilExpr(pass, x) {
		return name
	}
	return ""
}

func sentinelName(pass *analysis.Pass, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	if !isErrorType(v.Type()) {
		return ""
	}
	return v.Name()
}

// errorStringOperand reports whether e is a call to the Error() method
// of an error value.
func errorStringOperand(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	t := pass.TypesInfo.Types[sel.X].Type
	return t != nil && isErrorType(t)
}

func isNilExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// --- shared helpers ---

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

func pathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}
