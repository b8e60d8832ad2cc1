// Package chanflow tracks channel endpoints through the module and
// reports the lifecycle bugs vet cannot see: sends on channels that may
// already be closed, double closes, sends with no receiver anywhere in
// the goroutine topology, and select branches that can never fire.
//
// # Endpoint facts
//
// Per function, every make/send/recv/close/range/select endpoint is
// classified against a stable channel identity:
//
//   - analysis.VarKey for channel fields of package-scope structs and
//     package-level channel variables ("pkg/path.Type.field");
//   - "#i" for the function's own i-th parameter, so behavior on a
//     channel handed in from outside composes back through call sites;
//   - locals have no cross-function identity and are judged in place.
//
// The per-function send/recv/close sets close transitively over static
// calls (goroutine launches included — a send in a launched body is
// still part of the function's topology) and are exported as MaySend,
// MayRecv, and MayClose facts, with "#j" entries mapped through the
// call site's j-th argument. A //reschedvet:closes directive adds a
// close the body hides behind indirection (a stored teardown hook, an
// interface call); a directive naming no channel field is reported as
// stale.
//
// # Checks
//
// In the checked packages (the serving tree: resbook, server,
// lifecycle), three checks run per function:
//
//   - a forward may-closed dataflow over the PR 4 CFG (union at joins,
//     defer and go bodies excluded from sequential flow) flags close
//     and send on an identity already in the closed set — locally or
//     via a callee's MayClose fact ("closed by <fn>"). Assigning a
//     channel variable resets its state (a fresh make is a new
//     channel).
//   - a local channel made unbuffered whose every use the analyzer can
//     classify (send, recv, close, range, select comm, or an argument
//     position a callee fact covers) and that has sends but no receiver
//     anywhere — including launched goroutine bodies and callee "#j"
//     receives — is an orphan: every send blocks forever. Any
//     unclassified use counts as an escape and disqualifies the
//     channel.
//   - a select comm on a channel variable that is declared `var ch
//     chan T` and never assigned or address-taken is a branch on a
//     forever-nil channel: it never fires. (Deliberately nilling an
//     armed channel to disable a case assigns it, so the idiom stays
//     clean.)
package chanflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"resched/internal/analysis"
)

// CheckedPackages are where the channel-lifecycle checks run. Fact
// inference runs module-wide regardless.
var CheckedPackages = map[string]bool{
	"resched/internal/resbook":   true,
	"resched/internal/server":    true,
	"resched/internal/lifecycle": true,
}

// MayClose lists the channel identities a function may close, directly
// or through static calls: VarKeys and "#i" parameter positions.
type MayClose struct {
	Chans []string
}

func (*MayClose) AFact() {}

// MaySend lists the channel identities a function may send on.
type MaySend struct {
	Chans []string
}

func (*MaySend) AFact() {}

// MayRecv lists the channel identities a function may receive from
// (including range loops and select comms).
type MayRecv struct {
	Chans []string
}

func (*MayRecv) AFact() {}

func init() {
	analysis.RegisterFact("chanflow.MayClose", (*MayClose)(nil))
	analysis.RegisterFact("chanflow.MaySend", (*MaySend)(nil))
	analysis.RegisterFact("chanflow.MayRecv", (*MayRecv)(nil))
}

// Analyzer reports channel-lifecycle hazards in the serving tree.
var Analyzer = &analysis.Analyzer{
	Name: "chanflow",
	Doc: "channels in serving code follow a sane lifecycle: no send on a possibly-closed channel, " +
		"no double close (MayClose facts compose closes across packages), no send without a " +
		"receiver in the goroutine topology, no select case on a channel that is nil forever; " +
		"//reschedvet:closes declares a close hidden behind indirection",
	Run: run,
}

// useSet is one function's channel endpoint behavior, keyed by VarKey
// or "#i" parameter position.
type useSet struct {
	send, recv, closes map[string]bool
}

func newUseSet() *useSet {
	return &useSet{send: map[string]bool{}, recv: map[string]bool{}, closes: map[string]bool{}}
}

type runner struct {
	pass   *analysis.Pass
	info   *types.Info
	decls  []*ast.FuncDecl
	byName map[*ast.FuncDecl]*types.Func
	use    map[*types.Func]*useSet
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo
	decls, _ := analysis.FuncDecls(pass.Files, info)
	r := &runner{
		pass:   pass,
		info:   info,
		decls:  decls,
		byName: map[*ast.FuncDecl]*types.Func{},
		use:    map[*types.Func]*useSet{},
	}
	for _, fd := range decls {
		if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
			r.byName[fd] = fn
		}
	}
	r.inferUse()
	if !CheckedPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, fd := range r.decls {
		fn := r.byName[fd]
		if fn == nil || pass.InTestFile(fd.Pos()) {
			continue
		}
		r.checkClosedFlow(fd, fn)
		r.checkOrphanChannels(fd)
		r.checkNilSelect(fd)
	}
	return nil
}

// factKey renders a channel expression's cross-function identity:
// VarKey for fields and package-level vars, "#i" for fn's parameters,
// "" for everything else.
func (r *runner) factKey(fn *types.Func, e ast.Expr) string {
	v := analysis.ChanVar(r.info, e)
	if v == nil {
		return ""
	}
	return r.varFactKey(fn, v)
}

func (r *runner) varFactKey(fn *types.Func, v *types.Var) string {
	if k := analysis.VarKey(v); k != "" {
		return k
	}
	if i := paramIndex(fn, v); i >= 0 {
		return "#" + strconv.Itoa(i)
	}
	return ""
}

func paramIndex(fn *types.Func, v *types.Var) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == v {
			return i
		}
	}
	return -1
}

// inferUse computes every declared function's endpoint sets — a direct
// layer over the full body (goroutine and deferred bodies included: may
// semantics), the closes directive, then a transitive fixpoint mapping
// callee entries through call-site arguments — and exports the facts.
func (r *runner) inferUse() {
	for _, fd := range r.decls {
		fn := r.byName[fd]
		if fn == nil {
			continue
		}
		u := newUseSet()
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if k := r.factKey(fn, n.Chan); k != "" {
					u.send[k] = true
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if k := r.factKey(fn, n.X); k != "" {
						u.recv[k] = true
					}
				}
			case *ast.RangeStmt:
				if k := r.factKey(fn, n.X); k != "" {
					u.recv[k] = true
				}
			case *ast.CallExpr:
				if arg, ok := closeArg(r.info, n); ok {
					if k := r.factKey(fn, arg); k != "" {
						u.closes[k] = true
					}
				}
			}
			return true
		})
		if args, ok := analysis.DirectiveArgs(fd.Doc, analysis.ClosesDirective); ok {
			for _, spec := range strings.Fields(args) {
				v := analysis.ResolveChanSpec(r.pass.Pkg, fn, spec)
				if v == nil {
					r.pass.Reportf(fd.Pos(), "closes directive on %s names no channel %s", fd.Name.Name, spec)
					continue
				}
				if k := analysis.VarKey(v); k != "" {
					u.closes[k] = true
				}
			}
		}
		r.use[fn] = u
	}

	for changed := true; changed; {
		changed = false
		for _, fd := range r.decls {
			fn := r.byName[fd]
			if fn == nil {
				continue
			}
			u := r.use[fn]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := analysis.Callee(r.info, call)
				if callee == nil || callee == fn {
					return true
				}
				cu := r.useOf(callee)
				for _, m := range []struct{ from, into map[string]bool }{
					{cu.send, u.send}, {cu.recv, u.recv}, {cu.closes, u.closes},
				} {
					for k := range m.from {
						mapped := r.mapCalleeKey(fn, call, k)
						if mapped != "" && !m.into[mapped] {
							m.into[mapped] = true
							changed = true
						}
					}
				}
				return true
			})
		}
	}

	if !analysis.InModule(r.pass.Pkg.Path()) {
		return
	}
	for _, fd := range r.decls {
		fn := r.byName[fd]
		if fn == nil {
			continue
		}
		u := r.use[fn]
		if len(u.closes) > 0 {
			r.pass.ExportObjectFact(fn, &MayClose{Chans: sortedSet(u.closes)})
		}
		if len(u.send) > 0 {
			r.pass.ExportObjectFact(fn, &MaySend{Chans: sortedSet(u.send)})
		}
		if len(u.recv) > 0 {
			r.pass.ExportObjectFact(fn, &MayRecv{Chans: sortedSet(u.recv)})
		}
	}
}

// useOf returns a callee's endpoint sets: local inference if declared
// here, otherwise its imported facts (cached; empty when it has none).
func (r *runner) useOf(fn *types.Func) *useSet {
	if u, ok := r.use[fn]; ok {
		return u
	}
	u := newUseSet()
	var mc MayClose
	if r.pass.ImportObjectFact(fn, &mc) {
		for _, k := range mc.Chans {
			u.closes[k] = true
		}
	}
	var ms MaySend
	if r.pass.ImportObjectFact(fn, &ms) {
		for _, k := range ms.Chans {
			u.send[k] = true
		}
	}
	var mr MayRecv
	if r.pass.ImportObjectFact(fn, &mr) {
		for _, k := range mr.Chans {
			u.recv[k] = true
		}
	}
	r.use[fn] = u
	return u
}

// mapCalleeKey translates one callee endpoint identity into the
// caller's: VarKeys pass through, "#j" maps through the call's j-th
// argument (empty when the argument has no identity of its own).
func (r *runner) mapCalleeKey(fn *types.Func, call *ast.CallExpr, k string) string {
	if !strings.HasPrefix(k, "#") {
		return k
	}
	j, err := strconv.Atoi(k[1:])
	if err != nil || j < 0 || j >= len(call.Args) {
		return ""
	}
	return r.factKey(fn, call.Args[j])
}

// flowKey is a channel expression's in-function identity for the
// may-closed dataflow: the VarKey when it has one, else a per-variable
// local key. The second result is the display name.
func (r *runner) flowKey(e ast.Expr) (string, string) {
	v := analysis.ChanVar(r.info, e)
	if v == nil {
		return "", ""
	}
	return r.varFlowKey(v)
}

func (r *runner) varFlowKey(v *types.Var) (string, string) {
	if k := analysis.VarKey(v); k != "" {
		return k, analysis.ShortKey(k)
	}
	return "local@" + strconv.Itoa(int(v.Pos())), v.Name()
}

// mapCalleeFlowKey is mapCalleeKey against flow identities, so a
// callee's "#j" close lands on the caller's local channel too.
func (r *runner) mapCalleeFlowKey(call *ast.CallExpr, k string) (string, string) {
	if !strings.HasPrefix(k, "#") {
		return k, analysis.ShortKey(k)
	}
	j, err := strconv.Atoi(k[1:])
	if err != nil || j < 0 || j >= len(call.Args) {
		return "", ""
	}
	return r.flowKey(call.Args[j])
}

// checkClosedFlow runs the forward may-closed analysis over one
// function and reports double closes and sends on possibly-closed
// channels. The state maps closed identity -> closer name ("" = closed
// in this function); joins union, preferring the smaller closer name
// for determinism.
func (r *runner) checkClosedFlow(fd *ast.FuncDecl, fn *types.Func) {
	cfg := analysis.NewCFG(fd.Body)
	n := len(cfg.Blocks)
	if n == 0 {
		return
	}
	closedIn := make([]map[string]string, n)
	closedIn[0] = map[string]string{}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			if closedIn[b.Index] == nil {
				continue
			}
			out := cloneClosed(closedIn[b.Index])
			for _, node := range b.Nodes {
				r.closedTransfer(fn, node, out, false)
			}
			for _, succ := range b.Succs {
				in := closedIn[succ.Index]
				if in == nil {
					closedIn[succ.Index] = cloneClosed(out)
					changed = true
					continue
				}
				for k, by := range out {
					if old, ok := in[k]; !ok || by < old {
						in[k] = by
						changed = true
					}
				}
			}
		}
	}
	for _, b := range cfg.Blocks {
		closed := cloneClosed(closedIn[b.Index])
		for _, node := range b.Nodes {
			r.closedTransfer(fn, node, closed, true)
		}
	}
}

// closedTransfer folds one block node into the closed set; with report
// set it also emits the diagnostics (the reporting pass reuses the
// transfer so state and checks cannot drift apart).
func (r *runner) closedTransfer(fn *types.Func, node ast.Node, closed map[string]string, report bool) {
	analysis.WalkBlockNode(node, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred and launched bodies do not run at this point in
			// the sequential flow.
			return false
		case *ast.AssignStmt:
			// Assigning a channel variable rebinds it; whatever was
			// closed is no longer what it names.
			for _, l := range nd.Lhs {
				if v := analysis.ChanVar(r.info, l); v != nil {
					k, _ := r.varFlowKey(v)
					delete(closed, k)
				}
			}
			return true
		case *ast.RangeStmt:
			// The range variables rebind every iteration.
			for _, e := range []ast.Expr{nd.Key, nd.Value} {
				if e == nil {
					continue
				}
				id, ok := ast.Unparen(e).(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := r.info.Defs[id].(*types.Var)
				if v == nil {
					v, _ = r.info.Uses[id].(*types.Var)
				}
				if v != nil && analysis.IsChanType(v.Type()) {
					k, _ := r.varFlowKey(v)
					delete(closed, k)
				}
			}
			return true
		case *ast.SendStmt:
			if k, name := r.flowKey(nd.Chan); k != "" {
				if _, ok := closed[k]; ok && report {
					r.pass.Reportf(nd.Pos(), "send on possibly-closed channel %s", name)
				}
			}
			return true
		case *ast.CallExpr:
			if arg, ok := closeArg(r.info, nd); ok {
				if k, name := r.flowKey(arg); k != "" {
					if by, ok := closed[k]; ok && report {
						if by == "" {
							r.pass.Reportf(nd.Pos(), "double close of %s (closed earlier in this function)", name)
						} else {
							r.pass.Reportf(nd.Pos(), "double close of %s (closed by %s)", name, by)
						}
					}
					closed[k] = ""
				}
				return true
			}
			callee := analysis.Callee(r.info, nd)
			if callee == nil || callee == fn {
				return true
			}
			cu := r.useOf(callee)
			for _, k := range sortedSet(cu.closes) {
				mapped, _ := r.mapCalleeFlowKey(nd, k)
				if mapped == "" {
					continue
				}
				if _, ok := closed[mapped]; !ok {
					closed[mapped] = callee.Name()
				}
			}
			return true
		}
		return true
	})
}

// checkOrphanChannels finds local unbuffered channels whose every use
// is classifiable and that have sends but no receiver anywhere in the
// goroutine topology: every send on them blocks forever.
func (r *runner) checkOrphanChannels(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := r.info.Defs[id].(*types.Var)
			if !ok || !isUnbufferedMakeChan(r.info, as.Rhs[i]) {
				continue
			}
			r.checkOrphan(fd, v, id.Pos())
		}
		return true
	})
}

func (r *runner) checkOrphan(fd *ast.FuncDecl, v *types.Var, pos token.Pos) {
	total := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && r.info.Uses[id] == v {
			total++
		}
		return true
	})
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && r.info.Uses[id] == v
	}
	accounted, sends, recvs := 0, 0, 0
	escaped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if isV(n.Chan) {
				accounted++
				sends++
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isV(n.X) {
				accounted++
				recvs++
			}
		case *ast.RangeStmt:
			if isV(n.X) {
				accounted++
				recvs++
			}
		case *ast.CallExpr:
			if arg, ok := closeArg(r.info, n); ok && isV(arg) {
				accounted++
				break
			}
			callee := analysis.Callee(r.info, n)
			for j, a := range n.Args {
				if !isV(a) {
					continue
				}
				if callee == nil {
					escaped = true
					continue
				}
				cu := r.useOf(callee)
				pk := "#" + strconv.Itoa(j)
				if !cu.send[pk] && !cu.recv[pk] && !cu.closes[pk] {
					// The callee does something with the channel the
					// facts do not describe (stores it, ignores it):
					// treat as escaped.
					escaped = true
					continue
				}
				accounted++
				if cu.send[pk] {
					sends++
				}
				if cu.recv[pk] {
					recvs++
				}
			}
		}
		return !escaped
	})
	if escaped || accounted < total {
		return
	}
	if sends > 0 && recvs == 0 {
		r.pass.Reportf(pos, "send on %s has no receiver in this goroutine topology", v.Name())
	}
}

// checkNilSelect reports select comms on channel variables that are
// declared without an initializer and never assigned: the channel is
// nil on every execution and the branch never fires.
func (r *runner) checkNilSelect(fd *ast.FuncDecl) {
	nilDecl := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Values) != 0 {
			return true
		}
		for _, id := range spec.Names {
			if v, ok := r.info.Defs[id].(*types.Var); ok && analysis.IsChanType(v.Type()) {
				nilDecl[v] = true
			}
		}
		return true
	})
	if len(nilDecl) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					if v, ok := r.info.Uses[id].(*types.Var); ok {
						delete(nilDecl, v)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if v, ok := r.info.Uses[id].(*types.Var); ok {
						delete(nilDecl, v)
					}
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
			if comm == nil {
				continue
			}
			var ch ast.Expr
			switch c := comm.(type) {
			case *ast.SendStmt:
				ch = c.Chan
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					ch = u.X
				}
			case *ast.AssignStmt:
				if len(c.Rhs) == 1 {
					if u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						ch = u.X
					}
				}
			}
			if ch == nil {
				continue
			}
			if v := analysis.ChanVar(r.info, ch); v != nil && nilDecl[v] {
				r.pass.Reportf(comm.Pos(), "select case on nil channel %s never fires", v.Name())
			}
		}
		return true
	})
}

// closeArg matches the close builtin and returns its operand.
func closeArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "close" || len(call.Args) != 1 {
		return nil, false
	}
	return call.Args[0], true
}

// isUnbufferedMakeChan matches `make(chan T)` — no capacity argument.
func isUnbufferedMakeChan(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "make" || len(call.Args) != 1 {
		return false
	}
	return analysis.IsChanType(info.TypeOf(e))
}

func cloneClosed(s map[string]string) map[string]string {
	c := make(map[string]string, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func sortedSet(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
