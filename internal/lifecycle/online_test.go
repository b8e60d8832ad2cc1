package lifecycle

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"resched/internal/model"
	"resched/internal/resbook"
)

// TestStartCloseRace drives Start and Close concurrently. Before the
// engine's cancel func and epoch moved under e.mu, Start wrote both
// unsynchronized after its started CAS while Close read e.cancel after
// its closed CAS — two independent atomics that order nothing between
// the goroutines, a data race the race detector catches here. The
// invariant beyond race-freedom: whatever the interleaving, no driving
// goroutine survives the final Close (either Start observed the close
// and refused to launch, or Close cancelled and joined it).
func TestStartCloseRace(t *testing.T) {
	for i := 0; i < 100; i++ {
		book, err := resbook.NewSharded(8, 0, 2, model.Hour)
		if err != nil {
			t.Fatalf("NewSharded: %v", err)
		}
		e, err := New(Config{Book: book, Tick: time.Millisecond})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		var startErr error
		go func() {
			defer wg.Done()
			startErr = e.Start(context.Background())
		}()
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
		// Idempotent, and joins the loop if Start won the race.
		e.Close()
		if startErr != nil && !errors.Is(startErr, ErrStopped) {
			t.Fatalf("Start: %v", startErr)
		}
		// After Close, the engine must refuse new work regardless of
		// who won.
		if _, err := e.Submit(1, model.Minute); !errors.Is(err, ErrStopped) {
			t.Fatalf("Submit after Close: err = %v, want ErrStopped", err)
		}
	}
}

// TestCloseBeforeStart pins the start-after-close ordering: a Close
// that completes before Start must leave no goroutine behind, and
// Start must report ErrStopped rather than launching a loop nobody
// will ever stop.
func TestCloseBeforeStart(t *testing.T) {
	book, err := resbook.NewSharded(8, 0, 2, model.Hour)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	e, err := New(Config{Book: book, Tick: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e.Close()
	if err := e.Start(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Close: err = %v, want ErrStopped", err)
	}
}

// TestSubmitWakesLoop pins the wake channel: with a tick of an hour,
// the only thing that can advance a started engine within seconds is
// Submit's wake-up. An engine whose wake channel was never made drops
// every wake-up (the non-blocking send falls to its default) and
// leaves the job queued until the first tick.
func TestSubmitWakesLoop(t *testing.T) {
	e := newEngine(t, 8, Config{Tick: time.Hour})
	if err := e.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer e.Close()
	j := mustSubmit(t, e, 2, 3600)
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, ok := e.Job(j.ID)
		if ok && got.State == Running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %v 2s after Submit; the wake-up was lost", j.ID, got.State)
		}
		time.Sleep(time.Millisecond)
	}
}
