package analysis

import (
	"go/ast"
	"go/types"
)

// The lockset transfer shared by lockhold (may-held: a union join, for
// "could a lock be held across this") and guardedby (must-held: an
// intersecting join, for "is the lock held on every path"). Only the
// join differs; what one statement does to the set of held locks is
// the same question for both, so it is answered once, here.

// LockMode is how strongly a lock is held. Read < Write: a must-held
// join keeps the weaker mode.
type LockMode int

const (
	// ReadLocked: held through RLock.
	ReadLocked LockMode = iota + 1
	// WriteLocked: held through Lock, or named by a holds contract.
	WriteLocked
)

// Lockset maps each held mutex (a struct field or package variable)
// to its mode.
type Lockset map[*types.Var]LockMode

// Clone returns an independent copy of s.
func (s Lockset) Clone() Lockset {
	c := make(Lockset, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// ContractFunc returns a callee's lock contract, or nil when it has
// none.
type ContractFunc func(*types.Func) *LockContractSpec

// ApplyLockCall folds one call's effect into held: a direct
// Lock/RLock/Unlock/RUnlock. Other calls leave held as it is.
func ApplyLockCall(info *types.Info, call *ast.CallExpr, held Lockset) {
	key, acquire, release, rlock := LockMethod(info, call)
	switch {
	case key == nil:
	case acquire && rlock:
		held[key] = ReadLocked
	case acquire:
		held[key] = WriteLocked
	case release:
		delete(held, key)
	}
}

// TransferLocks applies every lock effect of one CFG node to held, in
// source order. Deferred and go statements are skipped: a deferred
// unlock keeps its lock held to the function's end, which is what it
// means, and a goroutine's locks are its own.
func TransferLocks(info *types.Info, node ast.Node, held Lockset) {
	WalkBlockNode(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			ApplyLockCall(info, n, held)
		}
		return true
	})
}

// EntryLockset is the lockset a function body starts with: the mutexes
// its own holds contract says every caller holds.
func EntryLockset(fn *types.Func, lc *LockContractSpec) Lockset {
	entry := Lockset{}
	if fn == nil || lc == nil {
		return entry
	}
	for _, name := range lc.Holds {
		if v := ResolveMutexSpec(fn, name); v != nil {
			entry[v] = WriteLocked
		}
	}
	return entry
}
