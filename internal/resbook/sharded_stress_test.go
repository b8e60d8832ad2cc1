package resbook

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"resched/internal/model"
)

// TestShardedDisjointEpochs: concurrent committers working in
// disjoint days never invalidate each other. Eight workers each own
// one day and commit into it repeatedly, every time against the
// snapshot they took before any worker started — so every commit but
// the first is computed at an old version. A commit is validated by
// capacity, and no worker takes processors another needs, so not one
// of these commits may come back ErrStale. Invariants are checked
// after every commit.
func TestShardedDisjointEpochs(t *testing.T) {
	const (
		workers  = 8
		iters    = 20
		capacity = 64
	)
	book := New(capacity, 0)
	snaps := make([]Snapshot, workers)
	for w := range snaps {
		snaps[w] = book.Snapshot()
	}

	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, snap Snapshot) {
			defer wg.Done()
			base := model.Time(w) * model.Day
			for i := 0; i < iters; i++ {
				// Stay strictly inside the worker's own day.
				off := model.Time((i * 4001) % int(model.Day-model.Hour))
				reqs := []Request{{Start: base + off, End: base + off + model.Hour, Procs: 1}}
				out, err := book.Commit(snap, reqs)
				if err != nil {
					t.Errorf("worker %d iter %d: disjoint-epoch commit: %v", w, i, err)
					return
				}
				committed.Add(int64(len(out)))
				if err := book.CheckInvariants(); err != nil {
					t.Errorf("worker %d iter %d: invariants: %v", w, i, err)
					return
				}
			}
		}(w, snaps[w])
	}
	wg.Wait()

	if got, want := committed.Load(), int64(workers*iters); got != want {
		t.Errorf("committed %d reservations, want %d", got, want)
	}
	if got, want := int64(len(book.List())), committed.Load(); got != want {
		t.Errorf("ledger holds %d reservations, want %d", got, want)
	}
	// Every commit bumped the global version exactly once.
	if got, want := book.Version(), uint64(workers*iters); got != want {
		t.Errorf("version %d, want %d", got, want)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedOverlappingEpochs drives all eight workers into the same
// hour — half of them across the day boundary as well — each asking
// for the whole cluster, so their commits contend for the same
// processors. Each round hands every worker a snapshot at the same
// version, so all but the round's first committer find their
// processors gone and must observe ErrStale; each retries at the
// earliest fit of a fresh snapshot. A commit may go stale only when
// the capacity is really gone: no processor is ever released here, so
// a request that still fits after its stale error was refused wrongly.
// The retry loop must converge, the ledger must account for every
// booking exactly once, and invariants must hold after every
// successful commit.
func TestShardedOverlappingEpochs(t *testing.T) {
	const (
		workers  = 8
		rounds   = 5
		capacity = 64
	)
	book := New(capacity, 0)

	var committed, stale atomic.Int64
	for round := 0; round < rounds; round++ {
		snaps := make([]Snapshot, workers)
		for w := range snaps {
			snaps[w] = book.Snapshot()
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, snap Snapshot) {
				defer wg.Done()
				// Half the workers book inside the round's hour; the
				// rest span from it past the day boundary, so the two
				// groups still collide in that hour.
				start := model.Time(round) * model.Hour
				dur := model.Hour
				if w%2 == 1 {
					dur = model.Day + model.Time(w)*model.Hour - start
				}
				for {
					st, err := snap.Avail.EarliestFitChecked(capacity, dur, start)
					if err != nil {
						t.Errorf("worker %d: fit: %v", w, err)
						return
					}
					out, err := book.Commit(snap, []Request{{Start: st, End: st + dur, Procs: capacity}})
					if err == nil {
						committed.Add(int64(len(out)))
						break
					}
					if !errors.Is(err, ErrStale) {
						t.Errorf("worker %d: commit: %v", w, err)
						return
					}
					stale.Add(1)
					snap = book.Snapshot()
					if free := snap.Avail.MinFree(st, st+dur); free >= capacity {
						t.Errorf("worker %d: stale commit of [%d,%d) although all %d processors are free", w, st, st+dur, free)
						return
					}
				}
				if err := book.CheckInvariants(); err != nil {
					t.Errorf("worker %d: invariants: %v", w, err)
				}
			}(w, snaps[w])
		}
		wg.Wait()

		// Within a round every worker started from the same snapshot
		// and asked for the whole cluster in the same hour, so only one
		// commit could land without a conflict.
		if got := stale.Load(); got < int64((round+1)*(workers-1)) {
			t.Errorf("round %d: %d stale commits so far, want >= %d", round, got, (round+1)*(workers-1))
		}
	}

	if got, want := committed.Load(), int64(workers*rounds); got != want {
		t.Errorf("committed %d reservations, want %d", got, want)
	}
	if got, want := int64(len(book.List())), committed.Load(); got != want {
		t.Errorf("ledger holds %d reservations, want %d", got, want)
	}
	if err := book.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	t.Logf("overlap stress: %d commits, %d stale retries, final version %d",
		committed.Load(), stale.Load(), book.Version())
}
