// Package atomicmix keeps atomic fields typed. A struct field whose
// address is passed to a sync/atomic function (atomic.AddUint64(&s.n,
// 1)) is an ordinary integer everywhere else, and one plain read or
// write of it anywhere — a quantile under a mutex, a constructor, a
// debug dump — is a data race the race detector sees only under a
// lucky interleaving: the atomic side establishes no happens-before
// edge for the plain side. The typed atomics (atomic.Uint64 and
// friends) cannot be accessed plainly at all, so the rule is simply:
// fields use them, and the address-taking functions are for
// non-fields only.
//
// Flagging the atomic call, not the plain access, keeps the check
// local: no facts, no tracking of every access (DESIGN.md §20).
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"resched/internal/analysis"
)

// Analyzer flags sync/atomic calls on a field's address.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "a struct field accessed atomically is declared with a typed atomic (atomic.Uint64, ...), " +
		"never passed by address to a sync/atomic function, so no plain access can mix in",
	Run: run,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !isAtomicCall(info, call) {
				return true
			}
			if sel, v := addrOfField(info, call.Args[0]); v != nil {
				pass.Reportf(sel.Pos(), "sync/atomic call on field %s: declare it with a typed atomic so no plain access can mix in", v.Name())
			}
			return true
		})
	}
	return nil
}

// isAtomicCall reports whether call is a package-level sync/atomic
// function (the address-taking forms; typed-atomic methods have a
// receiver).
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addrOfField matches &x.f and returns the selector and field.
func addrOfField(info *types.Info, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, nil
	}
	v, _ := s.Obj().(*types.Var)
	return sel, v
}
