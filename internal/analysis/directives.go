package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive handling and lock-expression resolution shared by the
// concurrency analyzers (lockhold, guardedby). Directives are
// machine-readable comments of the form
//
//	//reschedvet:<name> [args...]
//
// attached to a function declaration's doc comment.

// The lock-contract directives are validated and enforced at call
// sites by guardedby; lockhold and guardedby both apply them through
// the shared lockset transfer (lockset.go). lockorder is lockhold's:
// it exempts indexed same-field acquisitions.
const (
	// HoldsDirective declares that callers must hold the named mutex.
	HoldsDirective = "//reschedvet:holds"
	// AcquiresDirective declares that calling the function acquires
	// the named mutex and leaves it held.
	AcquiresDirective = "//reschedvet:acquires"
	// ReleasesDirective declares that calling the function releases
	// the named mutex.
	ReleasesDirective = "//reschedvet:releases"
	// LockOrderDirective declares that a function acquires same-field
	// locks through strictly ascending indices — the sharded book's
	// global lock order.
	LockOrderDirective = "//reschedvet:lockorder"
)

// HasDirective reports whether the comment group carries the directive
// (exact name; a longer word sharing the prefix does not match).
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	_, ok := DirectiveArgs(doc, directive)
	return ok
}

// DirectiveArgs returns the text following the directive in the
// comment group, trimmed of surrounding space. The directive matches
// only as a whole word: `//reschedvet:holds` does not match
// `//reschedvet:holdsnothing`.
func DirectiveArgs(doc *ast.CommentGroup, directive string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, directive) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, directive)
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex,
// through pointers and aliases.
func IsMutexType(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// LockMethod classifies a call as a sync mutex acquire or release and
// resolves the lock it names to a stable key (the mutex variable or
// field). rlock distinguishes the read forms (RLock/RUnlock).
// Unresolvable receivers return a nil key and are ignored.
func LockMethod(info *types.Info, call *ast.CallExpr) (key *types.Var, acquire, release, rlock bool) {
	fn := Callee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false, false
	}
	named := ReceiverNamed(fn)
	if named == nil {
		return nil, false, false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return nil, false, false, false
	}
	switch fn.Name() {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, rlock = true, true
	case "Unlock":
		release = true
	case "RUnlock":
		release, rlock = true, true
	default:
		return nil, false, false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false, false
	}
	return LockVar(info, sel.X), acquire, release, rlock
}

// LockVar resolves `mu` or `b.mu` (through any selector chain) to the
// variable or field naming the lock.
func LockVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			v, _ := sel.Obj().(*types.Var)
			return v
		}
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return LockVar(info, e.X)
		}
	}
	return nil
}

// ChanVar resolves a channel-typed expression to its variable, if it
// is a plain (possibly selected) variable reference.
func ChanVar(info *types.Info, e ast.Expr) *types.Var {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		if v == nil {
			if sel, ok := info.Selections[e]; ok {
				v, _ = sel.Obj().(*types.Var)
			}
		}
		return v
	}
	return nil
}

// LockContractSpec is the parsed form of a function's lock-contract
// directives, mutex names as written (field or Type.field).
type LockContractSpec struct {
	Holds    []string
	Acquires []string
	Releases []string
}

// ParseLockContract reads the holds/acquires/releases directives off a
// doc comment without validating the named mutexes (guardedby owns the
// hygiene reports). ok is true when at least one directive names at
// least one mutex.
func ParseLockContract(doc *ast.CommentGroup) (LockContractSpec, bool) {
	var spec LockContractSpec
	for _, d := range []struct {
		directive string
		into      *[]string
	}{
		{HoldsDirective, &spec.Holds},
		{AcquiresDirective, &spec.Acquires},
		{ReleasesDirective, &spec.Releases},
	} {
		if args, ok := DirectiveArgs(doc, d.directive); ok {
			*d.into = strings.Fields(args)
		}
	}
	return spec, len(spec.Holds)+len(spec.Acquires)+len(spec.Releases) > 0
}

// ResolveMutexSpec resolves a directive's mutex name for fn: a bare
// field name against fn's receiver struct, or Type.field against a
// struct type in fn's package.
func ResolveMutexSpec(pkg *types.Package, fn *types.Func, spec string) *types.Var {
	var st *types.Struct
	name := spec
	if t, f, ok := strings.Cut(spec, "."); ok {
		name = f
		obj, _ := pkg.Scope().Lookup(t).(*types.TypeName)
		if obj == nil {
			return nil
		}
		st, _ = obj.Type().Underlying().(*types.Struct)
	} else if named := ReceiverNamed(fn); named != nil {
		st, _ = named.Underlying().(*types.Struct)
	}
	if st == nil {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == name && IsMutexType(f.Type()) {
			return f
		}
	}
	return nil
}

// IndexedLockOp reports whether call is a mutex Lock/RLock/Unlock/
// RUnlock whose receiver expression is indexed — the `shards[i].mu`
// shape the lockorder directive blesses.
func IndexedLockOp(info *types.Info, call *ast.CallExpr) bool {
	if key, acquire, release, _ := LockMethod(info, call); key == nil || (!acquire && !release) {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	indexed := false
	ast.Inspect(sel.X, func(n ast.Node) bool {
		if _, ok := n.(*ast.IndexExpr); ok {
			indexed = true
			return false
		}
		return true
	})
	return indexed
}
