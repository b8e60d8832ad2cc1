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

// HoldsDirective declares that callers must hold the named mutex. It
// is validated and enforced at call sites by guardedby, and seeds the
// entry lockset of lockhold and guardedby alike (lockset.go).
const HoldsDirective = "//reschedvet:holds"

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

// LockContractSpec is the parsed form of a function's holds
// directive: the field names of the mutexes every caller must hold.
type LockContractSpec struct {
	Holds []string
}

// ParseLockContract reads the holds directive off a doc comment
// without validating the named mutexes (guardedby owns the hygiene
// reports). ok is true when the directive names at least one mutex.
func ParseLockContract(doc *ast.CommentGroup) (LockContractSpec, bool) {
	var spec LockContractSpec
	if args, ok := DirectiveArgs(doc, HoldsDirective); ok {
		spec.Holds = strings.Fields(args)
	}
	return spec, len(spec.Holds) > 0
}

// ResolveMutexSpec resolves a directive's mutex name for fn: a field
// name against fn's receiver struct.
func ResolveMutexSpec(fn *types.Func, name string) *types.Var {
	named := ReceiverNamed(fn)
	if named == nil {
		return nil
	}
	st, _ := named.Underlying().(*types.Struct)
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
