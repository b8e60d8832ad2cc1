// Package server is a guardedby fixture exercising the cross-package
// LockContract fact: the resbook fixture's holds contract is enforced
// here with no local directive.
package server

import (
	"resched/internal/resbook"
)

func Merge(b *resbook.Book) {
	b.Mu.Lock()
	b.MergeLocked(1)
	b.Mu.Unlock()
}

func BadMerge(b *resbook.Book) {
	b.MergeLocked(1) // want "call to MergeLocked requires holding Mu"
}
