// Package wgleak enforces goroutine join discipline in the serving
// and simulation packages: a launched goroutine must have a visible
// way to finish — a sync.WaitGroup it calls Done on, a context whose
// Done channel bounds it, or a channel the launcher reads — or be
// explicitly declared fire-and-forget. An unjoined goroutine in the
// daemon outlives its request, pins pooled buffers, and turns shutdown
// into a data race.
//
// For `go f(...)` with a named callee, the judgment crosses package
// boundaries through facts: analyzing f's own package exports
// JoinsWaitGroup (f calls Done on a *sync.WaitGroup), CtxBounded (f
// selects on a context's Done channel), or FireAndForget (f's doc
// comment carries a //reschedvet:fireandforget directive), and the
// launching package imports them. For `go func() {...}()` the literal
// body is inspected directly with the same rules, plus one more local
// one: a send on a channel that the enclosing function also receives
// from counts as a join (the launcher-collects-result pattern).
package wgleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"resched/internal/analysis"
)

// CheckedPackages are where goroutine launches are judged. Fact
// inference runs module-wide regardless.
var CheckedPackages = map[string]bool{
	"resched/internal/server":    true,
	"resched/internal/resbook":   true,
	"resched/internal/sim":       true,
	"resched/internal/lifecycle": true,
	"resched/cmd/reschedd":       true,
}

// fireAndForgetDirective in a function's doc comment declares its
// goroutines (or the function itself, when launched) intentionally
// unjoined.
const fireAndForgetDirective = "//reschedvet:fireandforget"

// JoinsWaitGroup marks a function that calls Done on a
// *sync.WaitGroup: launching it under a matching Add/Wait joins it.
type JoinsWaitGroup struct{}

func (*JoinsWaitGroup) AFact() {}

// CtxBounded marks a function whose body observes a context's Done
// channel, so cancelling the context bounds its lifetime.
type CtxBounded struct{}

func (*CtxBounded) AFact() {}

// FireAndForget marks a function documented as intentionally unjoined
// via the //reschedvet:fireandforget directive.
type FireAndForget struct{}

func (*FireAndForget) AFact() {}

func init() {
	analysis.RegisterFact("wgleak.JoinsWaitGroup", (*JoinsWaitGroup)(nil))
	analysis.RegisterFact("wgleak.CtxBounded", (*CtxBounded)(nil))
	analysis.RegisterFact("wgleak.FireAndForget", (*FireAndForget)(nil))
}

// Analyzer flags unjoined goroutine launches in serving code.
var Analyzer = &analysis.Analyzer{
	Name: "wgleak",
	Doc: "goroutines in serving code must be joined (WaitGroup, context, or a channel the " +
		"launcher reads) or declared //reschedvet:fireandforget",
	Run: run,
}

func run(pass *analysis.Pass) error {
	exportFacts(pass)
	if !CheckedPackages[pass.Pkg.Path()] {
		return nil
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if pass.InTestFile(fd.Pos()) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkLaunch(pass, fd, gs)
			return true
		})
	}
	return nil
}

// exportFacts records join-discipline facts about every function the
// package declares, for importing launch sites.
func exportFacts(pass *analysis.Pass) {
	if !analysis.InModule(pass.Pkg.Path()) {
		return
	}
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		if hasDirective(fd.Doc, fireAndForgetDirective) {
			pass.ExportObjectFact(fn, &FireAndForget{})
		}
		if callsWaitGroupDone(pass.TypesInfo, fd.Body) {
			pass.ExportObjectFact(fn, &JoinsWaitGroup{})
		}
		if observesContextDone(pass.TypesInfo, fd.Body) {
			pass.ExportObjectFact(fn, &CtxBounded{})
		}
	}
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// methodOn reports whether call invokes the named method on a value
// whose type (after pointer unwrap) is pkgPath.typeName.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) bool {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	named := analysis.ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == typeName
}

func callsWaitGroupDone(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && methodOn(info, call, "sync", "WaitGroup", "Done") {
			found = true
		}
		return !found
	})
	return found
}

func observesContextDone(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := analysis.Callee(info, call)
			if fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkLaunch judges one go statement inside fd.
func checkLaunch(pass *analysis.Pass, fd *ast.FuncDecl, gs *ast.GoStmt) {
	info := pass.TypesInfo

	// Named callee: judge by facts (exported above for module
	// packages, including this one).
	if fn := analysis.Callee(info, gs.Call); fn != nil {
		for _, f := range []analysis.Fact{&JoinsWaitGroup{}, &CtxBounded{}, &FireAndForget{}} {
			if pass.ImportObjectFact(fn, f) {
				return
			}
		}
		pass.Reportf(gs.Pos(),
			"goroutine running %s is never joined: no WaitGroup, context bound, or channel join "+
				"(declare it //reschedvet:fireandforget if that is intended)", fn.Name())
		return
	}

	lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
	if !ok {
		return // go through a function value: launch site cannot be judged
	}
	if callsWaitGroupDone(info, lit.Body) || observesContextDone(info, lit.Body) {
		return
	}
	// Calling a fact-marked function from the literal body also joins:
	// `go func() { worker(ctx) }()`.
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.Callee(info, call); fn != nil {
			for _, f := range []analysis.Fact{&JoinsWaitGroup{}, &CtxBounded{}, &FireAndForget{}} {
				if pass.ImportObjectFact(fn, f) {
					joined = true
				}
			}
		}
		return !joined
	})
	if joined {
		return
	}
	if channelJoined(info, fd, gs, lit) {
		return
	}
	pass.Reportf(gs.Pos(),
		"goroutine is never joined: no WaitGroup.Done, no context Done, and no channel the "+
			"launcher reads (declare the work //reschedvet:fireandforget if that is intended)")
}

// channelJoined reports whether the literal sends on a channel that
// the enclosing function reads outside the go statement — the
// launcher-collects-result pattern.
func channelJoined(info *types.Info, fd *ast.FuncDecl, gs *ast.GoStmt, lit *ast.FuncLit) bool {
	sent := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			if v := chanVar(info, send.Chan); v != nil {
				sent[v] = true
			}
		}
		return true
	})
	if len(sent) == 0 {
		return false
	}
	received := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == gs {
			return false // reads inside the goroutine itself don't join it
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if v := chanVar(info, n.X); v != nil && sent[v] {
					received = true
				}
			}
		case *ast.RangeStmt:
			if v := chanVar(info, n.X); v != nil && sent[v] {
				received = true
			}
		}
		return !received
	})
	return received
}

// chanVar resolves a channel-typed expression to its variable.
func chanVar(info *types.Info, e ast.Expr) *types.Var {
	return analysis.ChanVar(info, e)
}
