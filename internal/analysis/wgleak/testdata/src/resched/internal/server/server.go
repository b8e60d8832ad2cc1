package server

import (
	"context"
	"sync"

	"resched/internal/workerlib"
)

func work() error { return nil }

// Positive cases.

func orphanLiteral() {
	go func() { // want "goroutine is never joined"
		for {
		}
	}()
}

func orphanNamed() {
	go workerlib.Orphan() // want "goroutine running Orphan is never joined"
}

func sendNobodyReads(done chan struct{}) {
	// The launcher never receives from done, so the send is not a join.
	go func() { // want "goroutine is never joined"
		done <- struct{}{}
	}()
	_ = done
}

// Negative cases.

func waitGroupJoin() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = work()
	}()
	wg.Wait()
}

func contextJoin(ctx context.Context) {
	go func() {
		select {
		case <-ctx.Done():
		}
	}()
}

func channelJoin() error {
	errc := make(chan error, 1)
	go func() {
		errc <- work()
	}()
	return <-errc
}

func selectChannelJoin() error {
	errc := make(chan error, 1)
	go func() {
		errc <- work()
	}()
	select {
	case err := <-errc:
		return err
	}
}

func crossPackageWaitGroup(jobs chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go workerlib.PoolWorker(&wg, jobs)
	wg.Wait()
}

func crossPackageCtx(ctx context.Context) {
	go workerlib.Bounded(ctx)
}

func crossPackageFireAndForget() {
	go workerlib.FlushMetrics()
}

func literalCallingJoined(ctx context.Context) {
	go func() {
		workerlib.Bounded(ctx)
	}()
}

// pool launches same-package workers whose only join is the
// WaitGroup on their receiver.
type pool struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

// serve is joined to any launch under a matching Add/Wait by its
// deferred Done — an inferred same-package JoinsWaitGroup fact.
func (p *pool) serve(job int) {
	defer p.wg.Done()
	_ = job
}

// Add before the launch, both under a held mutex; Wait in close.
func (p *pool) submit(job int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wg.Add(1)
	go p.serve(job)
}

func (p *pool) close() { p.wg.Wait() }

// The watcher observes every waiter's Done and bails out when its own
// context finishes first: two contexts, both bounding the literal.
func (p *pool) watch(ctx context.Context, cancel context.CancelFunc, waiters []context.Context) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for _, w := range waiters {
			select {
			case <-w.Done():
			case <-ctx.Done():
				return
			}
		}
		cancel()
	}()
}

func ignoredLaunch() {
	go func() { //reschedvet:ignore wgleak intentionally leaked in fixture
		for {
		}
	}()
}
