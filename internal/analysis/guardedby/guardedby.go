// Package guardedby checks the lock contracts of the serving tree's
// helpers. The serving code factors critical sections through *Locked
// methods that assume their caller holds a lock. One function
// directive makes that contract checkable instead of invisible:
//
//	//reschedvet:holds mu   the caller must hold mu (seeds the entry
//	                        lockset; every call site is checked for it)
//
// A mutex is named by its field name, resolved against the receiver's
// struct. Contracts export a LockContract fact so cross-package call
// sites see them, and a directive naming no mutex, or one that does
// not resolve, is itself a finding.
//
// Every call to a function with a holds contract must happen with the
// named lock held on every path: a forward must-held lockset analysis
// over the CFG, the dual of lockhold's may-held pass. The transfer is
// analysis.TransferLocks, shared with lockhold; the join here
// intersects.
//
// Accesses to fields annotated //reschedvet:guardedby are not checked:
// those annotations document which mutex guards a field, and -race
// caught every unguarded access the mutant catalogue seeded, while a
// *Locked helper called after the unlock was caught by this check alone
// (DESIGN.md §20).
//
// Calls inside function literals are not checked: a closure body runs
// on its own activation, possibly on another goroutine, and the CFG
// does not enter it (the same trade lockhold makes).
package guardedby

import (
	"go/ast"
	"go/types"

	"resched/internal/analysis"
)

// LockContract is the object fact on a function carrying a holds
// directive. Mutex names are the receiver's field names, as written.
type LockContract struct {
	Holds []string `json:",omitempty"`
}

func (*LockContract) AFact() {}

func init() {
	analysis.RegisterFact("guardedby.LockContract", (*LockContract)(nil))
}

// Analyzer flags calls to holds-contract functions made without the
// named lock held on every path.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc: "a function whose //reschedvet:holds contract names a mutex is only called while that " +
		"mutex is held on every path",
	Run: run,
}

// meet intersects other into s — the must-held join, keeping the
// weaker mode — and reports whether s changed.
func meet(s, other analysis.Lockset) bool {
	changed := false
	for k, m := range s {
		om, ok := other[k]
		if !ok {
			delete(s, k)
			changed = true
			continue
		}
		if om < m {
			s[k] = om
			changed = true
		}
	}
	return changed
}

func run(pass *analysis.Pass) error {
	contracts := collectContracts(pass)
	contractOf := func(fn *types.Func) *analysis.LockContractSpec {
		if lc, ok := contracts[fn]; ok {
			return (*analysis.LockContractSpec)(lc)
		}
		var lc LockContract
		if pass.ImportObjectFact(fn, &lc) {
			return (*analysis.LockContractSpec)(&lc)
		}
		return nil
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if pass.InTestFile(fd.Pos()) || fd.Body == nil {
			continue
		}
		checkFunc(pass, fd, contractOf)
	}
	return nil
}

// collectContracts gathers holds directives on this package's function
// declarations, validates that every named mutex resolves, and exports
// the facts.
func collectContracts(pass *analysis.Pass) map[*types.Func]*LockContract {
	contracts := map[*types.Func]*LockContract{}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if pass.InTestFile(fd.Pos()) {
			continue
		}
		spec, ok := analysis.ParseLockContract(fd.Doc)
		if !ok {
			if analysis.HasDirective(fd.Doc, analysis.HoldsDirective) {
				pass.Reportf(fd.Pos(), "holds directive on %s names no mutex", fd.Name.Name)
			}
			continue
		}
		lc := LockContract(spec)
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		for _, name := range lc.Holds {
			if analysis.ResolveMutexSpec(fn, name) == nil {
				pass.Reportf(fd.Pos(), "lock contract on %s names %s, which does not resolve to a mutex field",
					fd.Name.Name, name)
			}
		}
		contracts[fn] = &lc
		if analysis.InModule(pass.Pkg.Path()) {
			pass.ExportObjectFact(fn, &lc)
		}
	}
	return contracts
}

// callsHolder reports whether fd calls any function with a holds
// contract; everything else skips the CFG.
func callsHolder(info *types.Info, fd *ast.FuncDecl, contractOf analysis.ContractFunc) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if fn := analysis.Callee(info, call); fn != nil {
				if lc := contractOf(fn); lc != nil && len(lc.Holds) > 0 {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkFunc runs the must-held analysis over fd and reports every call
// whose holds contract is not met.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, contractOf analysis.ContractFunc) {
	info := pass.TypesInfo
	if !callsHolder(info, fd, contractOf) {
		return
	}
	cfg := analysis.NewCFG(fd.Body)
	n := len(cfg.Blocks)
	if n == 0 {
		return
	}
	fn, _ := info.Defs[fd.Name].(*types.Func)

	// heldIn[i] is the must-held set entering block i; nil = unreached.
	heldIn := make([]analysis.Lockset, n)
	heldIn[0] = analysis.EntryLockset(fn, contractOf(fn))
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if heldIn[b.Index] == nil {
				continue
			}
			out := heldIn[b.Index].Clone()
			for _, node := range b.Nodes {
				analysis.TransferLocks(info, node, out)
			}
			for _, succ := range b.Succs {
				if heldIn[succ.Index] == nil {
					heldIn[succ.Index] = out.Clone()
					changed = true
					continue
				}
				if meet(heldIn[succ.Index], out) {
					changed = true
				}
			}
		}
	}

	for _, b := range cfg.Blocks {
		held := heldIn[b.Index].Clone() // nil clones to empty
		for _, node := range b.Nodes {
			visit(pass, node, held, contractOf)
		}
	}
}

// visit reports unmet holds contracts in node, threading the lockset
// through the node's own calls so a call right after an acquire in the
// same statement is admitted.
func visit(pass *analysis.Pass, node ast.Node, held analysis.Lockset, contractOf analysis.ContractFunc) {
	info := pass.TypesInfo
	analysis.WalkBlockNode(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if fn := analysis.Callee(info, n); fn != nil {
				if lc := contractOf(fn); lc != nil {
					for _, name := range lc.Holds {
						v := analysis.ResolveMutexSpec(fn, name)
						if v == nil {
							continue
						}
						if _, ok := held[v]; !ok {
							pass.Reportf(n.Pos(), "call to %s requires holding %s (contract), which is not held on every path",
								fn.Name(), name)
						}
					}
				}
			}
			analysis.ApplyLockCall(info, n, held)
		}
		return true
	})
}
