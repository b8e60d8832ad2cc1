// Package chanflow reports select branches that can never fire: a
// select comm on a channel variable declared `var ch chan T` and never
// assigned nor address-taken waits on a nil channel, on every
// execution, forever. In the engine's driving loop that is a wake-up
// channel that was never made, so a Submit's wake-up is silently lost
// and the job waits for the next tick. Deliberately nilling an armed
// channel to disable a case assigns it, so that idiom stays clean.
//
// Channel closes and orphan sends are left to tests and -race, which
// caught every such fault the mutant catalogue seeded (DESIGN.md §20).
package chanflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"resched/internal/analysis"
)

// CheckedPackages are the serving packages, where a select loop that
// silently loses a branch stalls a daemon instead of failing a test.
var CheckedPackages = map[string]bool{
	"resched/internal/resbook":   true,
	"resched/internal/server":    true,
	"resched/internal/lifecycle": true,
}

// Analyzer flags select cases on channels that are nil forever.
var Analyzer = &analysis.Analyzer{
	Name: "chanflow",
	Doc:  "no select case on a channel variable that is declared without a value and never assigned: it never fires",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !CheckedPackages[pass.Pkg.Path()] {
		return nil
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if !pass.InTestFile(fd.Pos()) {
			checkNilSelect(pass, fd)
		}
	}
	return nil
}

// checkNilSelect reports select comms on channel variables that are
// declared without an initializer and never assigned: the channel is
// nil on every execution and the branch never fires.
func checkNilSelect(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	nilDecl := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Values) != 0 {
			return true
		}
		for _, id := range spec.Names {
			if v, ok := info.Defs[id].(*types.Var); ok {
				if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
					nilDecl[v] = true
				}
			}
		}
		return true
	})
	if len(nilDecl) == 0 {
		return
	}
	// Any assignment or address-of gives the variable a chance to be
	// made, so it drops out.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				targets = []ast.Expr{n.X}
			}
		}
		for _, e := range targets {
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					delete(nilDecl, v)
				}
			}
		}
		return true
	})
	if len(nilDecl) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			comm := cl.(*ast.CommClause).Comm
			if ch := commChan(comm); ch != nil {
				if v := analysis.ChanVar(info, ch); v != nil && nilDecl[v] {
					pass.Reportf(comm.Pos(), "select case on nil channel %s never fires", v.Name())
				}
			}
		}
		return true
	})
}

// commChan returns the channel a select comm sends on or receives
// from, or nil for the default clause.
func commChan(comm ast.Stmt) ast.Expr {
	var recv ast.Expr
	switch c := comm.(type) {
	case *ast.SendStmt:
		return c.Chan
	case *ast.ExprStmt:
		recv = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			recv = c.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}
