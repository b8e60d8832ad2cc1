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

// Sharded mirrors the epoch-sharded book: per-shard locks acquired in
// ascending index order under the lockorder directive.
type Sharded struct {
	shards []shard
	mu     sync.Mutex
}

type shard struct {
	mu    sync.Mutex
	count int
}

// lockAll acquires every shard lock in ascending index order.
//
//reschedvet:lockorder
func (s *Sharded) lockAll() { // negative: the directive blesses the indexed acquisitions
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

// unlockAll releases in descending order; indexed releases satisfy
// the directive's hygiene requirement too.
//
//reschedvet:lockorder
func (s *Sharded) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// Positive: the same loop without the directive is still a same-key
// re-entrant acquisition as far as the may-held analysis can see.
func (s *Sharded) lockAllUndeclared() {
	for i := range s.shards {
		s.shards[i].mu.Lock() // want "re-entrant acquisition of mu deadlocks"
	}
}

// Positive: the directive only covers indexed acquisitions — taking a
// plain lock while the shard span is held is still nested locking.
//
//reschedvet:lockorder
func (s *Sharded) lockAllThenBook(b *Book) {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	b.mu.Lock() // want "acquiring mu while mu is held nests locks in the serving path"
	b.mu.Unlock()
}

// Negative: a lockorder declaration with no indexed lock operation
// changes nothing here; the plain acquisition gets the full check.
//
//reschedvet:lockorder
func (s *Sharded) Declared() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.shards {
		s.shards[i].count++
	}
}

// lockAll acquires the book's lock for its caller, as the sharded
// book's lockShards does.
//
//reschedvet:acquires mu
func (b *Book) lockAll() {
	b.mu.Lock()
}

// Positive: the lock a contract call acquired is held afterwards.
func (b *Book) WaitAfterLockAll(ch chan int) int {
	b.lockAll()
	v := <-ch // want "channel receive may block while mu is held"
	b.mu.Unlock()
	return v
}

// Positive: a *Locked helper runs with its holds contract's lock held.
//
//reschedvet:holds mu
func (b *Book) sendLocked(ch chan int) {
	ch <- b.version // want "channel send may block while mu is held"
}
