// Package mergecomplete flags sharded-observation collector types
// whose Merge method does not account for every field — the
// silent-wrong-results bug when a collector grows a field: the new
// state accumulates per shard, Merge drops all but one shard's copy,
// and every parallel run is quietly wrong while the sequential run
// (the one tests usually exercise) stays right.
//
// A type is held to the contract when it has both a Merge method
// taking another value of the same type (the mergeable-collector shape
// from PR 3: core.Collector, simpoint.BBVCollector,
// phase.RecurrenceTracker, phase.Detector, depgraph.Analyzer,
// stats.Reservoir) and an observation-style method (Inst, Branch,
// Observe, or Add) that feeds it per-instruction state.
//
// "Accounts for" means the field is referenced — on the receiver or
// the argument — inside Merge or inside any same-package function
// Merge calls, transitively. A field that is deliberately not merged
// (per-process scratch, configuration fixed at construction, replay
// state whose sharding mode never splits it) is declared with a
// suppression on its own line:
//
//	mark []uint32 //lint:ignore mergecomplete per-call scratch, reset by the generation bump at the top of every analyze
//
// which doubles as documentation of why the field may be dropped.
package mergecomplete

import (
	"go/ast"
	"go/types"

	"branchlab/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mergecomplete",
	Doc:  "flags mergeable collectors whose Merge method drops fields",
	Run:  run,
}

// observationMethods are the method names that mark a type as an
// ObserveBlocksFrom-style sharded collector.
var observationMethods = map[string]bool{
	"Inst": true, "Branch": true, "Observe": true, "Add": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	decls := funcDecls(pass)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		merge := mergeMethod(named)
		if merge == nil || !observes(named) {
			continue
		}
		md := decls[merge]
		if md == nil {
			continue // Merge defined in another file set (impossible in one unit)
		}
		referenced := fieldsReferenced(pass, named, md, decls)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !referenced[f.Name()] {
				pass.Reportf(f.Pos(),
					"field %s of %s is not referenced by Merge (directly or via same-package calls): a sharded run would silently drop its state; fold it in or annotate the field //lint:ignore mergecomplete <why it need not merge>",
					f.Name(), named.Obj().Name())
			}
		}
	}
	return nil, nil
}

// mergeMethod returns T's Merge method if its sole parameter is T or *T.
func mergeMethod(named *types.Named) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() != "Merge" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 1 {
			return nil
		}
		if sameNamed(sig.Params().At(0).Type(), named) {
			return m
		}
		return nil
	}
	return nil
}

func observes(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if observationMethods[named.Method(i).Name()] {
			return true
		}
	}
	return false
}

// funcDecls indexes the unit's function declarations by their object.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// fieldsReferenced returns the names of T's fields selected on any
// T-typed value inside merge's body or, transitively, inside any
// same-package function it calls.
func fieldsReferenced(pass *analysis.Pass, named *types.Named,
	merge *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) map[string]bool {

	referenced := make(map[string]bool)
	seen := map[*ast.FuncDecl]bool{}
	work := []*ast.FuncDecl{merge}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel := pass.TypesInfo.Selections[n]
				if sel == nil || sel.Kind() != types.FieldVal {
					return true
				}
				if sameNamed(sel.Recv(), named) && len(sel.Index()) > 0 {
					st := named.Underlying().(*types.Struct)
					referenced[st.Field(sel.Index()[0]).Name()] = true
				}
			case *ast.CallExpr:
				var callee types.Object
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee = pass.TypesInfo.Uses[fun]
				case *ast.SelectorExpr:
					callee = pass.TypesInfo.Uses[fun.Sel]
				}
				if fn, ok := callee.(*types.Func); ok {
					if fd2 := decls[fn]; fd2 != nil {
						work = append(work, fd2)
					}
				}
			}
			return true
		})
	}
	return referenced
}

// sameNamed reports whether t (possibly behind a pointer) is the named
// type itself.
func sameNamed(t types.Type, named *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}
