// Package server exercises chanflow across the package boundary (the
// feed's closes contract), the same-package close fact inferred from a
// method body, and the worker-pool param-fact composition.
package server

import "resched/internal/resbook"

// stopTwice closes the feed through its contract and then again
// directly: the cross-package double close.
func stopTwice(f *resbook.Feed) {
	f.Stop()
	close(f.Updates) // want "double close of resbook.Feed.Updates \\(closed by Stop\\)"
}

// sendAfterStop publishes into a stream the contract already closed.
func sendAfterStop(f *resbook.Feed) {
	f.Stop()
	f.Updates <- 1 // want "send on possibly-closed channel resbook.Feed.Updates"
}

// drain is the pool worker: its MayRecv fact covers parameter #0.
func drain(jobs chan int) {
	for j := range jobs {
		_ = j
	}
}

// pump hands its private channel to a launched drain; the param fact
// supplies the receiver (negative).
func pump() {
	jobs := make(chan int)
	go drain(jobs)
	jobs <- 7
	jobs <- 9
	close(jobs)
}

// lonely's send has no receiver anywhere: the orphan positive,
// anchored at the make site.
func lonely() {
	sink := make(chan string) // want "send on sink has no receiver in this goroutine topology"
	sink <- "x"
}

// doubleLocal closes the same local channel twice on one path.
func doubleLocal() {
	done := make(chan struct{})
	close(done)
	close(done) // want "double close of done \\(closed earlier in this function\\)"
}

// branchClose closes on two exclusive paths: the flow analysis keeps
// them apart (negative).
func branchClose(ok bool) {
	done := make(chan struct{})
	if ok {
		close(done)
		return
	}
	close(done)
}

type result struct {
	v   int
	err error
}

// flight is one computation several callers wait on; done broadcasts
// settlement.
type flight struct {
	done chan struct{}
	res  result
}

// finish publishes the result and releases every waiter. Its close is
// in plain sight, so the MayClose fact is inferred, not declared.
func (f *flight) finish(r result) {
	f.res = r
	close(f.done)
}

// finishTwice is the double-settle bug: finish already closed done.
func (f *flight) finishTwice(r result) {
	f.finish(r)
	close(f.done) // want "double close of server.flight.done \\(closed by finish\\)"
}

// signalAfterFinish sends on the broadcast channel after settlement
// may have closed it.
func (f *flight) signalAfterFinish(r result) {
	f.finish(r)
	f.done <- struct{}{} // want "send on possibly-closed channel server.flight.done"
}

// group delivers per-waiter results on owned buffered channels.
type group struct {
	waiters []chan result
}

// deliver sends exactly once per waiter and closes each channel; the
// range variable rebinds every iteration, so the close of one waiter's
// channel does not taint the next send (negative).
func (g *group) deliver(r result) {
	for _, ch := range g.waiters {
		ch <- r
		close(ch)
	}
}

// join registers a buffered per-waiter channel; it escapes into the
// registry, so the orphan check stays away (negative).
func (g *group) join() chan result {
	ch := make(chan result, 1)
	g.waiters = append(g.waiters, ch)
	return ch
}
