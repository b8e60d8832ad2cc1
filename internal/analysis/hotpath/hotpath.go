// Package hotpath keeps allocation out of the functions the serving
// latency budget lives in. A function annotated
//
//	//reschedvet:hotpath
//
// — the CPA scans, the treap descents, the binary codec encode — is
// checked for the constructs that introduce per-call heap allocation,
// so the alloc wins of PRs 2 and 7 cannot regress silently:
//
//   - slice and map composite literals, and &T{} (escaping composite);
//   - make(map) and make(chan) — make([]T, n, c) is allowed, since a
//     constant-sized, non-escaping slice make can stay on the stack
//     and is the idiomatic preallocation;
//   - capturing closures (a func literal referencing enclosing locals
//     allocates its environment; a non-capturing literal is a static
//     funcval and is allowed);
//   - interface boxing at call sites: a concrete-typed argument
//     passed to an interface parameter, or an explicit conversion to
//     an interface type;
//   - fmt calls and string concatenation;
//   - append through a bare local with no visible preallocation.
//     Appending to a parameter (the pooled dst-append codec idiom), to
//     struct-owned scratch (s.buf), through a pointer or an element,
//     or to a local assigned from a 3-arg make or an x[:0] reslice is
//     the sanctioned amortized pattern and is allowed.
//
// The directive exports a Hot object fact, visible in -facts dumps,
// so tooling can enumerate the declared hot set. Function literal
// bodies are not descended into: the literal's creation is judged
// here (capture), its body runs on its own activation.
//
// The check is syntactic, not an escape analysis: it flags the shapes
// that reliably allocate, and code that needs one deliberately can
// carry a //reschedvet:ignore hotpath line with its justification.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"resched/internal/analysis"
)

const hotDirective = "//reschedvet:hotpath"

// Hot marks a function declared //reschedvet:hotpath.
type Hot struct{}

func (*Hot) AFact() {}

func init() {
	analysis.RegisterFact("hotpath.Hot", (*Hot)(nil))
}

// Analyzer flags allocation-introducing constructs in functions
// annotated //reschedvet:hotpath.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "no allocation-introducing construct (composite literal, capturing closure, interface " +
		"boxing, fmt/string concatenation, map make, un-preallocated append) in a function " +
		"annotated //reschedvet:hotpath",
	Run: run,
}

func run(pass *analysis.Pass) error {
	decls, _ := analysis.FuncDecls(pass.Files, pass.TypesInfo)
	for _, fd := range decls {
		if !analysis.HasDirective(fd.Doc, hotDirective) {
			continue
		}
		if pass.InTestFile(fd.Pos()) || fd.Body == nil {
			continue
		}
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && analysis.InModule(pass.Pkg.Path()) {
			pass.ExportObjectFact(fn, &Hot{})
		}
		check(pass, fd)
	}
	return nil
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	prealloc := preallocated(info, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if captures(info, n) {
				pass.Reportf(n.Pos(), "capturing closure allocates its environment in hot path")
			}
			return false // the literal body runs on its own activation
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "escaping composite literal allocates in hot path")
					return false // don't double-report the literal itself
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in hot path")
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in hot path")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) && !isConst(info, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, prealloc)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc map[*types.Var]bool) {
	info := pass.TypesInfo

	// Builtins: make(map/chan) allocates; append is judged by its base.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				switch info.TypeOf(call).Underlying().(type) {
				case *types.Map:
					pass.Reportf(call.Pos(), "make(map) allocates in hot path")
				case *types.Chan:
					pass.Reportf(call.Pos(), "make(chan) allocates in hot path")
				}
			case "append":
				checkAppend(pass, fd, call, prealloc)
			}
			return
		}
	}

	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) && !isUntypedNil(info, call.Args[0]) {
				pass.Reportf(call.Pos(), "conversion to interface boxes its operand in hot path")
			}
		}
		return
	}

	// fmt is wholesale allocation (formatting state, boxing, the
	// result); report it as itself rather than per boxed argument.
	if fn := analysis.Callee(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates in hot path", fn.Name())
		return
	}

	// Interface boxing at an ordinary call site: a concrete argument
	// passed to an interface parameter.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return // f(xs...) passes the slice through, no per-element boxing
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			s, ok := params.At(np - 1).Type().Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = s.Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(info, arg) {
			continue
		}
		pass.Reportf(arg.Pos(), "passing %s to interface parameter boxes it in hot path", at)
	}
}

// checkAppend admits the amortized append shapes and flags the rest.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, prealloc map[*types.Var]bool) {
	if len(call.Args) == 0 {
		return
	}
	base := ast.Unparen(call.Args[0])
	switch b := base.(type) {
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return // struct-owned or indirected scratch: caller-amortized
	case *ast.Ident:
		v, _ := pass.TypesInfo.Uses[b].(*types.Var)
		if v == nil {
			return
		}
		if isParamOf(pass.TypesInfo, fd, v) || prealloc[v] {
			return
		}
		pass.Reportf(call.Pos(), "append to %s may grow without preallocation in hot path", v.Name())
	default:
		// append to a literal or call result: the allocation is the
		// base expression's, reported there.
	}
}

// preallocated collects the locals assigned (anywhere in fd) from a
// 3-arg make or an x[:0]-style reslice — the visible preallocation
// and scratch-reset idioms.
func preallocated(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, l := range as.Lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok {
				continue
			}
			v, _ := info.Defs[id].(*types.Var)
			if v == nil {
				v, _ = info.Uses[id].(*types.Var)
			}
			if v == nil || !preallocExpr(info, as.Rhs[i]) {
				continue
			}
			out[v] = true
		}
		return true
	})
	return out
}

// preallocExpr reports whether e visibly reserves capacity: a
// three-argument make of a slice, or a reslice to zero length.
func preallocExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		if !ok || b.Name() != "make" || len(e.Args) != 3 {
			return false
		}
		_, isSlice := info.TypeOf(e).Underlying().(*types.Slice)
		return isSlice
	case *ast.SliceExpr:
		if e.High == nil {
			return false
		}
		tv, ok := info.Types[e.High]
		return ok && tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

// captures reports whether the function literal references a variable
// declared outside it (package-level and universe names are static
// and free).
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if pkg := v.Pkg(); pkg != nil && v.Parent() == pkg.Scope() {
			return true // package-level variable: no environment needed
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = true
		}
		return !found
	})
	return found
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// isParamOf reports whether v is a parameter, receiver, or named
// result of fd.
func isParamOf(info *types.Info, fd *ast.FuncDecl, v *types.Var) bool {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	if sig.Recv() == v {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == v {
			return true
		}
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if sig.Results().At(i) == v {
			return true
		}
	}
	return false
}
