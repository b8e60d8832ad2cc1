// Package errdrop enforces error hygiene in the serving packages
// (internal/server, internal/api, internal/resbook): an error result
// must be used. The daemon's failure modes — stale commits, rejected
// reservations, encode failures on a dying connection — all surface as
// returned errors, so a dropped error is a silently wrong reply.
//
// Three shapes are flagged in non-test files:
//
//   - discarding an error with a blank identifier (`_ = f()`, or an
//     error position of a tuple assigned to `_` while the call's other
//     results are kept);
//   - calling an error-returning function as a bare statement;
//   - assigning an error to a variable that is never read on any path
//     (a dead definition, found by backward liveness over the CFG).
//
// Deferred and go'd calls are exempt: their error has no caller to
// return to, and flagging `defer f.Close()` teaches people to write
// wrappers, not to handle errors. Test files are exempt wholesale.
package errdrop

import (
	"go/ast"
	"go/types"

	"resched/internal/analysis"
)

// Analyzer flags dropped errors in the serving packages.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc: "error results in serving packages must be used: no blank discards, no unchecked " +
		"calls, no error variables that are dead on every path",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.ServingPackages[pass.Pkg.Path()] {
		return nil
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if pass.InTestFile(fd.Pos()) {
			continue
		}
		checkFunc(pass, fd)
	}
	return nil
}

// errorType reports whether t is the error interface.
func errorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// callErrors describes which results of a call are errors.
func callErrors(info *types.Info, call *ast.CallExpr) (n int, errIdx []int) {
	t := info.TypeOf(call)
	if t == nil {
		return 0, nil
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if errorType(tup.At(i).Type()) {
				errIdx = append(errIdx, i)
			}
		}
		return tup.Len(), errIdx
	}
	if errorType(t) {
		return 1, []int{0}
	}
	return 1, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Signature variables (parameters, named results) are excluded from
	// the dead-definition check: results are read by the return
	// machinery, not by syntax this analysis sees.
	sigVars := map[*types.Var]bool{}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					sigVars[v] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
	collect(fd.Type.Results)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			// The launched/deferred call's own error has nowhere to go;
			// its arguments are still ordinary expressions but contain
			// no statements, so pruning here is safe.
			return false
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, errIdx := callErrors(info, call); len(errIdx) > 0 {
				pass.Reportf(n.Pos(), "result of %s includes an error that is not checked",
					calleeName(info, call))
			}
			return true
		case *ast.AssignStmt:
			checkBlankError(pass, n)
			return true
		}
		return true
	})

	// Dead error definitions: assigned, then never read on any path.
	cfg := analysis.NewCFG(fd.Body)
	dead := analysis.DeadDefs(cfg, info, func(v *types.Var) bool {
		return errorType(v.Type()) && !sigVars[v]
	})
	for _, d := range dead {
		if d.Rhs == nil {
			continue // range or bare declaration: no error produced
		}
		if _, ok := ast.Unparen(d.Rhs).(*ast.CallExpr); !ok {
			continue // plain copies (err = nil) are resets, not drops
		}
		pass.Reportf(d.Ident.Pos(), "error assigned to %s is never checked on any path", d.Ident.Name)
	}
}

// checkBlankError flags error values assigned to the blank identifier.
func checkBlankError(pass *analysis.Pass, n *ast.AssignStmt) {
	info := pass.TypesInfo
	if len(n.Lhs) == len(n.Rhs) {
		for i, lhs := range n.Lhs {
			if isBlank(lhs) && errorType(info.TypeOf(n.Rhs[i])) {
				if _, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok {
					pass.Reportf(lhs.Pos(), "error discarded with _; handle it or return it")
				}
			}
		}
		return
	}
	// Tuple form: x, _ := f().
	if len(n.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	_, errIdx := callErrors(info, call)
	for _, i := range errIdx {
		if i < len(n.Lhs) && isBlank(n.Lhs[i]) {
			pass.Reportf(n.Lhs[i].Pos(), "error result of %s discarded with _; handle it or return it",
				calleeName(info, call))
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
