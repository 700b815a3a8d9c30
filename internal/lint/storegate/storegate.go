// Package storegate enforces the trace-store verification contract of
// DESIGN.md §8: bytes read from disk (or mapped from it) are untrusted
// until a verification gate has vouched for them, and no path in
// internal/tracestore may hand payload data — raw bytes, decoded
// instruction slices, or structs carrying them — to a caller without
// passing a gate first.
//
// Mechanics:
//
//   - Sources. A call to os.ReadFile, io.ReadAll, or syscall.Mmap
//     taints its result; io.ReadFull and (*File).Read/ReadAt taint the
//     buffer they fill. A call to any function carrying a
//     "ReadsUnverified" fact is likewise a source — the fact marks raw
//     loaders (tracestore's mapFile) so their callers inherit the
//     taint, across package boundaries.
//
//   - Gates. A function whose name begins with "verify"/"Verify", or
//     whose declaration carries a //storegate:gate directive, or that
//     holds an imported "Gated" fact, is a gate. A gate call's result
//     is clean, and a gate call dominating a return blesses the data
//     flowing past it: a statement containing a gate call (including
//     an if/for/switch init or condition — the verify-then-return
//     shape) gates every later statement in its block; a gate call
//     inside a branch body gates only that branch.
//
//   - Diagnostics fire on return statements of exported functions in
//     packages named tracestore that return file-tainted payload on an
//     ungated path. Unexported raw-returners anywhere get the
//     ReadsUnverified fact instead of a diagnostic: returning raw
//     bytes is their documented job, and the fact keeps their callers
//     honest.
//
// Known under-approximations, inherited from the Taint engine
// (dataflow.go) plus two of storegate's own: returns inside function
// literals are not checked, and gate calls are recognized
// syntactically — a gate reached through a function value is missed.
package storegate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"branchlab/internal/lint/analysis"
)

// ReadsUnverified marks a function that returns file-derived data
// without passing it through a verification gate; its callers treat
// its results as tainted.
type ReadsUnverified struct{}

func (*ReadsUnverified) AFact() {}

// Gated marks a verification gate: calls to it bless the data they
// dominate. Exported for name-matched and directive-marked functions
// so importers recognize gates across package boundaries.
type Gated struct{}

func (*Gated) AFact() {}

var Analyzer = &analysis.Analyzer{
	Name:      "storegate",
	Doc:       "flags trace-store paths returning file-derived payload not dominated by a verification gate",
	Run:       run,
	FactTypes: []analysis.Fact{(*ReadsUnverified)(nil), (*Gated)(nil)},
}

func run(pass *analysis.Pass) (interface{}, error) {
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	// Phase 1: publish gates, so phase 2's taint analysis recognizes
	// calls to them (local or imported) as blessing.
	for _, fd := range decls {
		if gateName(fd.Name.Name) || hasGateDirective(fd) {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				pass.ExportObjectFact(fn, &Gated{})
			}
		}
	}

	// Phase 2: fixpoint over ReadsUnverified — marking one function a
	// raw loader makes its callers' returns tainted in the next round.
	violations := make(map[*ast.FuncDecl][]violation)
	marked := make(map[*types.Func]bool) // this run's exports, not the store's
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			v := scanFunc(pass, fd)
			violations[fd] = v
			if len(v) > 0 && !marked[fn] {
				marked[fn] = true
				pass.ExportObjectFact(fn, &ReadsUnverified{})
				changed = true
			}
		}
	}

	// Phase 3: diagnostics, only for the exported surface of the store
	// package itself.
	if pathBase(pass.Pkg.Path()) != "tracestore" {
		return nil, nil
	}
	for _, fd := range decls {
		if !fd.Name.IsExported() || isTestFile(pass, fd.Pos()) {
			continue
		}
		for _, v := range violations[fd] {
			pass.Reportf(v.pos,
				"returning unverified %s read from the store: dominate this path with a verification gate (verify*, //storegate:gate) or decode through one (DESIGN.md §8)",
				v.what)
		}
	}
	return nil, nil
}

type violation struct {
	pos  token.Pos
	what string // printed type of the offending result
}

// scanFunc taints fd's body from its file-read sources and returns the
// ungated returns of tainted payload.
func scanFunc(pass *analysis.Pass, fd *ast.FuncDecl) []violation {
	t := analysis.NewTaint(pass.TypesInfo)
	t.SetSource(func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		return ok && isRawReadCall(pass, call)
	})
	t.SetExempt(func(call *ast.CallExpr) bool {
		return isGateCall(pass, call)
	})
	seedReaderBuffers(pass, fd.Body, t)
	t.Analyze(fd.Body)

	var out []violation
	scanStmts(pass, t, fd.Body.List, false, &out)
	return out
}

// scanStmts walks a statement list in order, tracking whether a gate
// call has dominated the flow, and records ungated tainted-payload
// returns. It returns the gated state at the end of the list so bare
// blocks propagate domination outward.
func scanStmts(pass *analysis.Pass, t *analysis.Taint, stmts []ast.Stmt, gated bool, out *[]violation) bool {
	for _, s := range stmts {
		for {
			ls, ok := s.(*ast.LabeledStmt)
			if !ok {
				break
			}
			s = ls.Stmt
		}
		switch s := s.(type) {
		case *ast.ReturnStmt:
			if !gated && !pass.SuppressedAt(s.Pos()) {
				for _, r := range s.Results {
					typ := pass.TypesInfo.Types[r].Type
					if isPayloadType(typ) && t.Tainted(r) {
						*out = append(*out, violation{pos: s.Pos(), what: typ.String()})
					}
				}
			}
		case *ast.IfStmt:
			hg := gated || hasGateCall(pass, s.Init) || hasGateCall(pass, s.Cond)
			scanStmts(pass, t, s.Body.List, hg, out)
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				scanStmts(pass, t, e.List, hg, out)
			case *ast.IfStmt:
				scanStmts(pass, t, []ast.Stmt{e}, hg, out)
			}
			gated = hg // the header runs on the fall-through path too
		case *ast.ForStmt:
			hg := gated || hasGateCall(pass, s.Init) || hasGateCall(pass, s.Cond)
			scanStmts(pass, t, s.Body.List, hg, out)
			gated = hg
		case *ast.RangeStmt:
			scanStmts(pass, t, s.Body.List, gated, out)
		case *ast.SwitchStmt:
			hg := gated || hasGateCall(pass, s.Init) || hasGateCall(pass, s.Tag)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, t, cc.Body, hg, out)
				}
			}
			gated = hg
		case *ast.TypeSwitchStmt:
			hg := gated || hasGateCall(pass, s.Init) || hasGateCall(pass, s.Assign)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, t, cc.Body, hg, out)
				}
			}
			gated = hg
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanStmts(pass, t, cc.Body, gated, out)
				}
			}
		case *ast.BlockStmt:
			gated = scanStmts(pass, t, s.List, gated, out)
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred and concurrent gate calls do not dominate.
		default:
			if hasGateCall(pass, s) {
				gated = true
			}
		}
	}
	return gated
}

// hasGateCall reports whether n (a statement or expression, possibly
// nil) contains a gate call outside any function literal.
func hasGateCall(pass *analysis.Pass, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isGateCall(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isGateCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return false
	}
	if gateName(fn.Name()) {
		return true
	}
	var fact Gated
	return pass.ImportObjectFact(fn, &fact)
}

func gateName(name string) bool {
	return strings.HasPrefix(name, "verify") || strings.HasPrefix(name, "Verify")
}

func hasGateDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//storegate:gate" {
			return true
		}
	}
	return false
}

// isRawReadCall reports whether the call's result is file-derived:
// a known raw-read function, or a callee carrying a ReadsUnverified
// fact.
func isRawReadCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch pathBase(fn.Pkg().Path()) + "." + fn.Name() {
	case "os.ReadFile", "io.ReadAll", "syscall.Mmap":
		return true
	}
	var fact ReadsUnverified
	return pass.ImportObjectFact(fn, &fact)
}

// seedReaderBuffers taints the destination buffers of fill-style
// readers — io.ReadFull(r, buf) and f.Read(buf)/f.ReadAt(buf, off)
// write file bytes through their argument rather than returning them.
func seedReaderBuffers(pass *analysis.Pass, body *ast.BlockStmt, t *analysis.Taint) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		var buf ast.Expr
		switch {
		case fn.Name() == "ReadFull" && fn.Pkg() != nil && pathBase(fn.Pkg().Path()) == "io" && len(call.Args) == 2:
			buf = call.Args[1]
		case (fn.Name() == "Read" || fn.Name() == "ReadAt") && isMethodCall(call) && len(call.Args) >= 1:
			buf = call.Args[0]
		default:
			return true
		}
		if obj := rootObj(pass, buf); obj != nil {
			t.Seed(obj)
		}
		return true
	})
}

func isMethodCall(call *ast.CallExpr) bool {
	_, ok := call.Fun.(*ast.SelectorExpr)
	return ok
}

// rootObj resolves an expression to the object it reads or writes
// through (x, x.f, x[i], *x all root at x).
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if o := pass.TypesInfo.Uses[x]; o != nil {
				return o
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPayloadType reports whether t is store payload: raw bytes, decoded
// instruction slices, or a composite carrying one.
func isPayloadType(t types.Type) bool {
	return containsPayload(t, make(map[types.Type]bool))
}

func containsPayload(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Slice:
		if b, ok := t.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
			return true // payload bytes
		}
		return containsPayload(t.Elem(), seen)
	case *types.Pointer:
		return containsPayload(t.Elem(), seen)
	case *types.Named:
		if isPayloadNamed(t) {
			return true
		}
		return containsPayload(t.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsPayload(t.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsPayload(t.Elem(), seen)
	case *types.Tuple:
		// A forwarded multi-value call: return loadRaw(path).
		for i := 0; i < t.Len(); i++ {
			if containsPayload(t.At(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// isPayloadNamed matches the decoded payload element type by package
// basename and type name: trace.Inst.
func isPayloadNamed(t *types.Named) bool {
	obj := t.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return pathBase(obj.Pkg().Path()) == "trace" && obj.Name() == "Inst"
}

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
