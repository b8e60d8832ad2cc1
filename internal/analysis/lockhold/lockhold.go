// Package lockhold enforces the book's locking contract from PR 1:
// the reservation book's RWMutex (and every other lock in the serving
// path) is only ever held across straight-line bookkeeping — never
// across an operation that can wait. A blocking call under b.mu turns
// the book's readers-writer lock into a convoy and, in the worst case
// (re-entering a locking method of the same receiver), a deadlock the
// race detector cannot see.
//
// The analyzer computes, per function, a forward may-held analysis
// over the CFG: a lock is held at a node if any path from an acquire
// reaches it without the matching release. Deferred unlocks keep the
// lock held to the end of the function, which is exactly their
// semantics — and a `defer mu.Unlock()` paired with its acquire in
// the same statement block is recognized explicitly, so reports
// under such a section say the lock is held until return rather than
// leaving the reader to wonder where the release went. An explicit
// Unlock/Lock pair inside a deferred section models the temporary
// release exactly: the window between them is lock-free and needs no
// //reschedvet:ignore. At every node where some lock is held, these
// operations are flagged:
//
//   - channel sends, receives, and ranges; selects without a default;
//   - time.Sleep, sync.WaitGroup.Wait, sync.Cond.Wait;
//   - acquiring any mutex (same key: re-entry deadlock; different
//     key: nested locking under the serving lock);
//   - calls into net and net/http;
//   - calls to any function whose MayBlock fact says it (or anything
//     it statically calls) does one of the above. Facts cross package
//     boundaries, so resbook.(*Book).Transact — which re-enters the
//     lock — is flagged when called under a lock in internal/server.
//
// The lockset itself is analysis.TransferLocks, shared with guardedby:
// direct Lock/Unlock calls, deferred statements skipped, and the lock
// contracts of this package's functions (//reschedvet:holds seeds a
// body's entry set; a call to an :acquires or :releases function edits
// the caller's), so the sharded book's sections behind lockShards are
// checked too. Only the join differs: a union here, an intersection in
// guardedby.
//
// Goroutine launches are not blocking at the launch site and their
// bodies run on their own stacks, so `go` statements are ignored both
// here and in fact inference.
//
// # The lockorder directive
//
// The sharded reservation book acquires several locks of the same
// field — b.shards[i].mu for ascending i — which the nested-lock rule
// would otherwise flag as a same-key re-entrant deadlock. A function
// whose doc comment carries
//
//	//reschedvet:lockorder
//
// declares that it participates in the book's global lock order:
// every multi-lock acquisition walks shard indices strictly upward,
// so overlapping spans cannot deadlock. Under the directive,
// re-entrant and nested reports are suppressed only for lock
// operations whose receiver is indexed (contains an IndexExpr);
// acquiring a plain, non-indexed lock still gets the full check,
// because the directive documents an indexed protocol, not a blanket
// waiver.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"resched/internal/analysis"
)

// CheckedPackages get the critical-section check. MayBlock facts are
// inferred module-wide regardless, so serving packages see the
// blocking behavior of everything they import.
var CheckedPackages = map[string]bool{
	"resched/internal/resbook":   true,
	"resched/internal/server":    true,
	"resched/internal/lifecycle": true,
}

// MayBlock marks a function that can wait: it performs a blocking
// operation directly or statically calls something that does.
type MayBlock struct{}

func (*MayBlock) AFact() {}

func init() {
	analysis.RegisterFact("lockhold.MayBlock", (*MayBlock)(nil))
}

// Analyzer flags blocking operations performed while a lock is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "no blocking operation (channel op, sleep, Wait, nested lock, net I/O, or a call " +
		"that may block) while a sync lock is held in the serving path; indexed same-field " +
		"acquisitions are allowed under a //reschedvet:lockorder directive",
	Run: run,
}

func run(pass *analysis.Pass) error {
	mayBlock := inferMayBlock(pass)
	ordered := lockOrderedDecls(pass)
	if !CheckedPackages[pass.Pkg.Path()] {
		return nil
	}
	decls, byObj := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	contracts := map[*types.Func]*analysis.LockContractSpec{}
	for fn, fd := range byObj {
		if spec, ok := analysis.ParseLockContract(fd.Doc); ok {
			contracts[fn] = &spec
		}
	}
	contract := func(fn *types.Func) *analysis.LockContractSpec { return contracts[fn] }
	for _, fd := range decls {
		if !pass.InTestFile(fd.Pos()) {
			checkSections(pass, fd, contract, mayBlock, ordered[fd])
		}
	}
	return nil
}

// lockOrderedDecls collects the functions declaring the lockorder
// directive, for indexed-acquisition suppression.
func lockOrderedDecls(pass *analysis.Pass) map[*ast.FuncDecl]bool {
	ordered := map[*ast.FuncDecl]bool{}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if analysis.HasDirective(fd.Doc, analysis.LockOrderDirective) {
			ordered[fd] = true
		}
	}
	return ordered
}

// inferMayBlock computes which declared functions may block and
// exports the result as facts; the returned set also covers this
// package's own declarations for intra-package calls.
func inferMayBlock(pass *analysis.Pass) map[*types.Func]bool {
	info := pass.TypesInfo
	_, byObj := analysis.FuncDecls(pass.Files, info)
	graph := analysis.PackageCallGraph(pass.Files, info, true)
	direct := func(fn *types.Func) bool {
		if fd, ok := byObj[fn]; ok {
			return directBlocking(info, fd.Body)
		}
		// Declared elsewhere: stdlib blocking entry points, or an
		// imported MayBlock fact from an already-analyzed module
		// package.
		if stdlibBlocking(fn) {
			return true
		}
		return pass.ImportObjectFact(fn, &MayBlock{})
	}
	res := analysis.Propagate(graph, direct)
	if analysis.InModule(pass.Pkg.Path()) {
		for fn, blocks := range res {
			if blocks {
				pass.ExportObjectFact(fn, &MayBlock{})
			}
		}
	}
	return res
}

// stdlibBlocking reports whether a function outside the module is a
// known blocking entry point: everything in net and net/http, plus the
// canonical waiters in time and sync. Acquiring a lock counts — that
// is the whole point of the nested-lock rule.
func stdlibBlocking(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "net", "net/http":
		return true
	case "time":
		return fn.Name() == "Sleep"
	case "sync":
		switch fn.Name() {
		case "Wait", "Lock", "RLock":
			return true
		}
	}
	return false
}

// directBlocking reports whether body performs a blocking operation
// itself (not through calls to module functions — the call graph
// handles those). Goroutine bodies are skipped.
func directBlocking(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.SelectStmt:
			// The select is the blocking point, not its comm
			// statements: with a default it cannot block at all, so
			// only the clause bodies are scanned further.
			if !selectHasDefault(n) {
				found = true
				return false
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						if directBlocking(info, s) {
							found = true
						}
					}
				}
			}
			return false
		case *ast.CallExpr:
			if fn := analysis.Callee(info, n); fn != nil && stdlibBlocking(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// checkSections runs the may-held analysis over fd, starting from the
// locks its own holds contract names, and reports blocking operations
// under a lock. Lock contracts of this package's functions apply at
// their call sites. ordered indicates a lockorder directive on fd:
// indexed same-field acquisitions are then exempt from the re-entrant
// and nested-lock reports.
func checkSections(pass *analysis.Pass, fd *ast.FuncDecl, contract analysis.ContractFunc, mayBlock map[*types.Func]bool, ordered bool) {
	info := pass.TypesInfo
	cfg := analysis.NewCFG(fd.Body)
	n := len(cfg.Blocks)
	if n == 0 {
		return
	}
	deferred := deferReleased(info, fd.Body)

	// Comm statements of selects live in their clause blocks, but the
	// select marker is where blocking is judged (a select with a
	// default cannot block); exempt them from individual send/receive
	// reports.
	comms := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		if sel, ok := nd.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comms[cc.Comm] = true
				}
			}
		}
		return true
	})

	// heldIn[i] is the set of locks that may be held entering block i
	// (the union over its predecessors); nil means the block is not yet
	// reached.
	fn, _ := info.Defs[fd.Name].(*types.Func)
	heldIn := make([]analysis.Lockset, n)
	heldIn[0] = analysis.EntryLockset(pass.Pkg, fn, contract(fn))
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if heldIn[b.Index] == nil {
				continue
			}
			out := heldIn[b.Index].Clone()
			for _, node := range b.Nodes {
				analysis.TransferLocks(info, node, out, contract)
			}
			for _, succ := range b.Succs {
				if heldIn[succ.Index] == nil {
					heldIn[succ.Index] = out.Clone()
					changed = true
					continue
				}
				for k, m := range out {
					if _, ok := heldIn[succ.Index][k]; !ok {
						heldIn[succ.Index][k] = m
						changed = true
					}
				}
			}
		}
	}

	for _, b := range cfg.Blocks {
		held := heldIn[b.Index].Clone() // nil clones to empty: unreachable blocks hold nothing
		for _, node := range b.Nodes {
			if !comms[node] {
				visitHeld(pass, node, held.Clone(), contract, mayBlock, ordered, deferred)
			}
			analysis.TransferLocks(info, node, held, contract)
		}
	}
}

// deferReleased collects the locks released by a `defer mu.Unlock()`
// (or RUnlock) appearing after their acquire in the same statement
// block — the canonical critical-section idiom. Blocking reports under
// such a lock carry an explicit note that the section runs to return,
// so the diagnostic names the release the reader would otherwise hunt
// for.
func deferReleased(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	scan := func(list []ast.Stmt) {
		acquired := map[*types.Var]bool{}
		for _, s := range list {
			switch s := s.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if key, acquire, _, _ := analysis.LockMethod(info, call); key != nil && acquire {
						acquired[key] = true
					}
				}
			case *ast.DeferStmt:
				if key, _, release, _ := analysis.LockMethod(info, s.Call); key != nil && release && acquired[key] {
					out[key] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			scan(n.List)
		case *ast.CaseClause:
			scan(n.Body)
		case *ast.CommClause:
			scan(n.Body)
		}
		return true
	})
	return out
}

// deferNote renders the held-to-return suffix when the named lock (the
// one heldName picks) is released by a same-block deferred unlock.
func deferNote(held analysis.Lockset, deferred map[*types.Var]bool) string {
	if k := pickHeld(held); k != nil && deferred[k] {
		return " until return (deferred unlock)"
	}
	return ""
}

// pickHeld chooses the representative lock for diagnostics: the
// alphabetically first, so messages are deterministic when several are
// held.
func pickHeld(held analysis.Lockset) *types.Var {
	var best *types.Var
	for k := range held {
		if best == nil || k.Name() < best.Name() {
			best = k
		}
	}
	return best
}

// heldName renders the held set for diagnostics (one lock).
func heldName(held analysis.Lockset) string {
	if k := pickHeld(held); k != nil {
		return k.Name()
	}
	return "lock"
}

// visitHeld reports blocking operations in node while a lock may be
// held. local starts as the set held entering the node and follows the
// node's own lock effects, so a Lock directly followed by a blocking
// call in the same statement is still caught, and the acquiring call
// itself is not. ordered exempts indexed acquisitions from the
// re-entrant and nested-lock reports (lockorder directive); deferred
// marks locks released by a same-block deferred unlock, which the
// blocking reports call out as held until return.
func visitHeld(pass *analysis.Pass, node ast.Node, local analysis.Lockset, contract analysis.ContractFunc, mayBlock map[*types.Func]bool, ordered bool, deferred map[*types.Var]bool) {
	info := pass.TypesInfo
	analysis.WalkBlockNode(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if len(local) > 0 {
				pass.Reportf(n.Pos(), "channel send may block while %s is held%s", heldName(local), deferNote(local, deferred))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(local) > 0 {
				pass.Reportf(n.Pos(), "channel receive may block while %s is held%s", heldName(local), deferNote(local, deferred))
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil && len(local) > 0 {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.Reportf(n.Pos(), "ranging over a channel may block while %s is held%s", heldName(local), deferNote(local, deferred))
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) && len(local) > 0 {
				pass.Reportf(n.Pos(), "select without default may block while %s is held%s", heldName(local), deferNote(local, deferred))
			}
		case *ast.CallExpr:
			reportCall(pass, n, local, mayBlock, ordered, deferred)
			analysis.ApplyLockCall(info, n, local, contract)
		}
		return true
	})
}

// reportCall reports a call that may block while local is held: a
// lock acquisition (re-entrant or nested), a stdlib blocking entry
// point, or a function that may block.
func reportCall(pass *analysis.Pass, call *ast.CallExpr, local analysis.Lockset, mayBlock map[*types.Func]bool, ordered bool, deferred map[*types.Var]bool) {
	info := pass.TypesInfo
	if key, acquire, _, _ := analysis.LockMethod(info, call); key != nil {
		_, reentrant := local[key]
		switch {
		case !acquire || (ordered && analysis.IndexedLockOp(info, call)):
			// A release, or declared lock-ordered and acquiring
			// through an index: the ascending-order protocol, not a
			// deadlock.
		case reentrant:
			pass.Reportf(call.Pos(), "re-entrant acquisition of %s deadlocks", key.Name())
		case len(local) > 0:
			pass.Reportf(call.Pos(), "acquiring %s while %s is held nests locks in the serving path", key.Name(), heldName(local))
		}
		return
	}
	if len(local) == 0 {
		return
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		return
	}
	if stdlibBlocking(fn) {
		pass.Reportf(call.Pos(), "call to %s.%s may block while %s is held%s",
			fn.Pkg().Name(), fn.Name(), heldName(local), deferNote(local, deferred))
		return
	}
	if mayBlock[fn] {
		pass.Reportf(call.Pos(), "call to %s may block while %s is held%s", fn.Name(), heldName(local), deferNote(local, deferred))
		return
	}
	var mb MayBlock
	if pass.ImportObjectFact(fn, &mb) {
		pass.Reportf(call.Pos(), "call to %s may block while %s is held%s (fact from %s)",
			fn.Name(), heldName(local), deferNote(local, deferred), fn.Pkg().Path())
	}
}
