package resbook

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"resched/internal/core"
	"resched/internal/dag"
	"resched/internal/model"
)

// stressDAG builds a small fork-join application: src -> n branches
// -> sink.
func stressDAG(t *testing.T, branches int) *dag.Graph {
	t.Helper()
	g := dag.New(branches + 2)
	src := g.AddTask(dag.Task{Name: "src", Seq: 2 * model.Minute, Alpha: 0.2})
	sink := g.AddTask(dag.Task{Name: "sink", Seq: 2 * model.Minute, Alpha: 0.2})
	for i := 0; i < branches; i++ {
		b := g.AddTask(dag.Task{Seq: 10 * model.Minute, Alpha: 0.1})
		g.MustAddEdge(src, b)
		g.MustAddEdge(b, sink)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConcurrentBooking is the serving-path stress test: 8 concurrent
// clients repeatedly schedule applications and book direct
// reservations against one book. Every round hands all clients a
// snapshot at the same version, and their schedules all start at the
// origin on up to half of the cluster each, so commits find their
// processors taken and retry. Afterwards the ledger must
// account for every booking exactly once and the profile must satisfy
// its invariants.
func TestConcurrentBooking(t *testing.T) {
	const (
		workers  = 8
		rounds   = 6
		capacity = 32
	)
	book := New(capacity, 0)

	var (
		retries   atomic.Int64 // observed version-conflict retries
		committed atomic.Int64 // reservations booked via Commit
		reserved  atomic.Int64 // reservations booked via Reserve
		released  atomic.Int64
	)

	// One scheduler per worker: core.Scheduler is not safe for
	// concurrent use, but distinct schedulers sharing the book are the
	// serving scenario.
	scheds := make([]*core.Scheduler, workers)
	for w := range scheds {
		s, err := core.NewScheduler(stressDAG(t, 3+w%3))
		if err != nil {
			t.Fatal(err)
		}
		scheds[w] = s
	}

	compute := func(w int, snap Snapshot) ([]Request, error) {
		env := core.Env{P: capacity, Now: snap.Avail.Origin(), Avail: snap.Avail, Q: capacity / 2}
		var sched *core.Schedule
		var err error
		if w%3 == 0 {
			_, sched, err = scheds[w].TightestDeadlineCtx(context.Background(), env, core.DLBDCPAR)
		} else {
			sched, err = scheds[w].TurnaroundCtx(context.Background(), env, core.BLCPAR, core.BDCPAR)
		}
		if err != nil {
			return nil, err
		}
		var reqs []Request
		for _, pl := range sched.Tasks {
			if pl.End > pl.Start {
				reqs = append(reqs, Request{Start: pl.Start, End: pl.End, Procs: pl.Procs})
			}
		}
		return reqs, nil
	}

	for round := 0; round < rounds; round++ {
		// All workers start the round from the same version.
		snaps := make([]Snapshot, workers)
		for w := range snaps {
			snaps[w] = book.Snapshot()
			if snaps[w].Version != snaps[0].Version {
				t.Fatalf("round %d: snapshot versions diverged with no writer", round)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, snap Snapshot) {
				defer wg.Done()

				// Optimistic-concurrency loop, counting retries.
				for {
					reqs, err := compute(w, snap)
					if err != nil {
						t.Errorf("worker %d: compute: %v", w, err)
						return
					}
					out, err := book.Commit(snap, reqs)
					if err == nil {
						committed.Add(int64(len(out)))
						break
					}
					if !errors.Is(err, ErrStale) {
						t.Errorf("worker %d: commit: %v", w, err)
						return
					}
					retries.Add(1)
					snap = book.Snapshot()
				}

				// Direct reservation traffic: find a free slot on a
				// snapshot, book it, activate, and sometimes release.
				// Another client may grab the slot between the fit and
				// the reserve — that capacity conflict is part of the
				// workload, so just look again.
				var r Reservation
				for {
					snap := book.Snapshot()
					st, err := snap.Avail.EarliestFitChecked(1, 50, snap.Avail.Origin())
					if err != nil {
						t.Errorf("worker %d: fit: %v", w, err)
						return
					}
					r, err = book.Reserve(st, st+50, 1)
					if err == nil {
						break
					}
				}
				reserved.Add(1)
				if err := book.Activate(r.ID); err != nil {
					t.Errorf("worker %d: activate: %v", w, err)
					return
				}
				if w%2 == 0 {
					if err := book.Release(r.ID); err != nil {
						t.Errorf("worker %d: release: %v", w, err)
						return
					}
					released.Add(1)
				}
			}(w, snaps[w])
		}
		wg.Wait()
	}

	// Within each round all workers committed against one version and
	// competed for the same processors: at most two half-cluster
	// schedules fit at once, so across the rounds at least workers-1
	// commits retried.
	if got := retries.Load(); got < workers-1 {
		t.Errorf("observed %d version-conflict retries, want >= %d", got, workers-1)
	}

	// No lost and no double-booked reservations: the ledger holds
	// exactly the bookings the workers made, and replaying it
	// reproduces the live profile.
	list := book.List()
	if want := committed.Load() + reserved.Load(); int64(len(list)) != want {
		t.Errorf("ledger holds %d reservations, want %d", len(list), want)
	}
	var gone int64
	for _, r := range list {
		if r.Status == Released {
			gone++
		}
	}
	if gone != released.Load() {
		t.Errorf("%d released reservations in ledger, want %d", gone, released.Load())
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := book.Snapshot().Avail.Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("stress: %d commits, %d direct reserves, %d releases, %d retries, final version %d",
		committed.Load(), reserved.Load(), released.Load(), retries.Load(), book.Version())
}
