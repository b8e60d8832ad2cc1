// Package resbook is a guardedby fixture: helper contracts, and the
// call shapes the analyzer must admit or flag.
package resbook

import "sync"

type Book struct {
	Mu    sync.Mutex
	Count int
}

// applyLocked assumes the caller holds Mu.
//
//reschedvet:holds Mu
func (b *Book) applyLocked(d int) {
	b.Count += d
}

func (b *Book) Apply(d int) {
	b.Mu.Lock()
	b.applyLocked(d)
	b.Mu.Unlock()
}

func (b *Book) BadApply(d int) {
	b.applyLocked(d) // want "call to applyLocked requires holding Mu"
}

// Deferred unlocks hold to the end of the function.
func (b *Book) DeferredApply(d int) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	b.applyLocked(d)
}

// The lock must be held on every path, not just one.
func (b *Book) MaybeApply(cond bool, d int) {
	if cond {
		b.Mu.Lock()
	}
	b.applyLocked(d) // want "call to applyLocked requires holding Mu"
	if cond {
		b.Mu.Unlock()
	}
}

// Dequeue-after-unlock: the helper runs once the section has ended.
func (b *Book) LateApply(d int) {
	b.Mu.Lock()
	b.Count++
	b.Mu.Unlock()
	b.applyLocked(d) // want "call to applyLocked requires holding Mu"
}

// MergeLocked folds src into the count; the caller holds Mu. Exported
// so the server fixture exercises the cross-package contract fact.
//
//reschedvet:holds Mu
func (b *Book) MergeLocked(src int) {
	b.Count += src
}

// mergeTwice relies on its own holds contract for the nested call.
//
//reschedvet:holds Mu
func (b *Book) mergeTwice(src int) {
	b.MergeLocked(src)
	b.MergeLocked(src)
}

var _ = (*Book).mergeTwice
