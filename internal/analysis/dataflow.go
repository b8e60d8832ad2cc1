package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the def-use layer over the CFG: a backward liveness
// pass that finds dead definitions (errdrop's assigned-but-never-
// checked errors). It is a may-analysis: paths merge by union, so a
// variable is live at a point if some path from it reads the variable.

// DeadDef is a definition whose value can never be read: every path
// from the assignment reaches a re-definition or function exit without
// a use.
type DeadDef struct {
	Ident *ast.Ident
	Var   *types.Var
	Rhs   ast.Expr
}

// DeadDefs runs a backward liveness analysis over the CFG and returns
// the dead definitions of variables for which track returns true,
// sorted by position. Variables captured by any function literal are
// never reported (the closure may read them at an arbitrary later
// time, e.g. from a defer).
func DeadDefs(cfg *CFG, info *types.Info, track func(v *types.Var) bool) []DeadDef {
	n := len(cfg.Blocks)
	if n == 0 {
		return nil
	}
	captured := capturedVars(cfg, info)

	liveIn := make([]map[*types.Var]bool, n)
	for i := range liveIn {
		liveIn[i] = map[*types.Var]bool{}
	}
	process := func(b *Block, report func(DeadDef)) map[*types.Var]bool {
		live := map[*types.Var]bool{}
		for _, succ := range b.Succs {
			for v := range liveIn[succ.Index] {
				live[v] = true
			}
		}
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			defs, uses := defsUses(b.Nodes[i], info)
			for _, d := range defs {
				if report != nil && !live[d.Var] && track(d.Var) && !captured[d.Var] {
					report(d)
				}
				delete(live, d.Var)
			}
			for _, u := range uses {
				live[u] = true
			}
		}
		return live
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := cfg.Blocks[i]
			live := process(b, nil)
			if len(live) != len(liveIn[i]) {
				changed = true
			} else {
				for v := range live {
					if !liveIn[i][v] {
						changed = true
						break
					}
				}
			}
			liveIn[i] = live
		}
	}
	var dead []DeadDef
	for _, b := range cfg.Blocks {
		process(b, func(d DeadDef) { dead = append(dead, d) })
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Ident.Pos() < dead[j].Ident.Pos() })
	return dead
}

// capturedVars collects variables referenced inside function literals
// anywhere in the CFG.
func capturedVars(cfg *CFG, info *types.Info) map[*types.Var]bool {
	captured := map[*types.Var]bool{}
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			WalkBlockNode(n, func(child ast.Node) bool {
				fl, ok := child.(*ast.FuncLit)
				if !ok {
					return true
				}
				ast.Inspect(fl.Body, func(inner ast.Node) bool {
					if id, ok := inner.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							captured[v] = true
						}
					}
					return true
				})
				return false
			})
		}
	}
	return captured
}

// defsUses splits one block node into the variables it defines (plain
// identifier targets) and the variables it reads. Reads include
// everything inside function literals: a closure keeps its captures
// alive.
func defsUses(n ast.Node, info *types.Info) (defs []DeadDef, uses []*types.Var) {
	defIdents := map[*ast.Ident]bool{}
	addDef := func(id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		if v, ok := identVar(info, id); ok {
			defIdents[id] = true
			defs = append(defs, DeadDef{Ident: id, Var: v, Rhs: rhs})
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					addDef(id, rhs)
				}
			}
		}
		// Op-assigns (+=) read their target, so the target is a use,
		// not a def — falling through to the use walk handles it.
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					for i, name := range vs.Names {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						} else if len(vs.Values) == 1 {
							rhs = vs.Values[0]
						}
						addDef(name, rhs)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if id, ok := n.Key.(*ast.Ident); ok {
			addDef(id, nil)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			addDef(id, nil)
		}
	}
	WalkBlockNode(n, func(child ast.Node) bool {
		switch c := child.(type) {
		case *ast.FuncLit:
			ast.Inspect(c.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						uses = append(uses, v)
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			if defIdents[c] {
				return true
			}
			if v, ok := info.Uses[c].(*types.Var); ok {
				uses = append(uses, v)
			}
		}
		return true
	})
	return defs, uses
}

// identVar resolves an identifier to the variable it defines or uses.
func identVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if obj := info.Defs[id]; obj != nil {
		v, ok := obj.(*types.Var)
		return v, ok
	}
	v, ok := info.Uses[id].(*types.Var)
	return v, ok
}
