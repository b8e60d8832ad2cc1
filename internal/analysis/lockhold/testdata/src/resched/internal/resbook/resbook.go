// Package resbook is a fixture mirror of the reservation book: a
// lock-guarded struct whose locking methods must export MayBlock facts
// to the server fixture, plus in-package critical sections with and
// without violations.
package resbook

import "sync"

type Book struct {
	mu      sync.RWMutex
	version int
}

// Version acquires the read lock: callers holding any lock must not
// call it (nested locking / re-entry).
func (b *Book) Version() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.version
}

// Transact re-enters the lock through Version; the MayBlock fact must
// propagate through the static call.
func (b *Book) Transact(fn func() error) error {
	if err := fn(); err != nil {
		return err
	}
	b.version = b.Version() + 1
	return nil
}

// Len is pure: no fact, safe to call under a lock.
func (b *Book) Len() int {
	return 4
}

// Positive: waiting on a channel inside the critical section.
func (b *Book) WaitUnderLock(ch chan int) int {
	b.mu.Lock()
	v := <-ch // want "channel receive may block while mu is held"
	b.mu.Unlock()
	return v
}

// Positive: the deferred unlock keeps the lock held to the end.
func (b *Book) SendUnderDeferredUnlock(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.version++
	ch <- b.version // want "channel send may block while mu is held"
}

// Negative: the channel op happens after the explicit unlock.
func (b *Book) SendAfterUnlock(ch chan int) {
	b.mu.Lock()
	b.version++
	v := b.version
	b.mu.Unlock()
	ch <- v
}

// Negative: straight-line bookkeeping only.
func (b *Book) Bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.version++
}

// Negative: the blocking work happens on a goroutine's own stack.
func (b *Book) NotifyAsync(ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := b.version
	go func() {
		ch <- v
	}()
}

// Positive: a *Locked helper runs with its holds contract's lock held.
//
//reschedvet:holds mu
func (b *Book) sendLocked(ch chan int) {
	ch <- b.version // want "channel send may block while mu is held"
}
