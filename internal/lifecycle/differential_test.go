package lifecycle

// The backfill-guardrail differential test: seeded random arrival
// traces replayed through the engine, with two independent oracles.
//
//  1. Guardrail: no backfilled job's completion ever crosses the
//     activation bound it was admitted under (End <= GuardBound).
//     An oracle run (guardOracleRun) also recomputes every bound from
//     the ledger rows, as EarliestPendingActivation did before the book
//     indexed its Pending starts, and must reproduce every job record.
//
//  2. Flat-profile replay: every reservation window the engine booked
//     over the whole run must co-exist in a fresh flat profile. Any
//     instant where concurrently-running windows exceeded capacity
//     makes the oracle's Reserve fail, independent of the live
//     book, the tree backend, and the optimistic commit path that
//     produced the schedule.

import (
	"context"
	"math/rand"
	"testing"

	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/resbook"
)

// randomTrace draws a seeded arrival trace: bursty arrivals, a mix of
// narrow short jobs and wide long jobs so that both backfill and
// starvation paths exercise.
func randomTrace(rng *rand.Rand, capacity, n int) []Arrival {
	trace := make([]Arrival, 0, n)
	var t model.Time
	for i := 0; i < n; i++ {
		t += model.Time(rng.Intn(40))
		procs := 1 + rng.Intn(capacity)
		if rng.Intn(4) == 0 {
			procs = capacity/2 + rng.Intn(capacity/2+1) // wide job
		}
		if procs > capacity {
			procs = capacity
		}
		dur := model.Duration(10 + rng.Intn(290))
		trace = append(trace, Arrival{At: t, Procs: procs, Dur: dur})
	}
	return trace
}

// guardOracleRun replays the trace on a fresh engine and book, one
// AdvanceTo at a time in Replay's order, and checks the GuardBound of
// every job a pass places against a bound scanned from the ledger:
// Book.List reads the rows, not the Pending index, so this is the old
// O(R) answer computed outside the book. It returns the final job
// table for comparison with the Replay run's.
func guardOracleRun(t *testing.T, seed int64, cfg Config, trace []Arrival) []Job {
	t.Helper()
	book := resbook.New(cfg.Book.Capacity(), 0)
	cfg.Book = book
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	ctx := context.Background()
	advance := func(at model.Time) {
		at = max(at, e.Now())
		// The engine's own reservations are the only Pending rows, and
		// those due by `at` are activated before the pass looks.
		guard := model.Infinity
		for _, r := range book.List() {
			if r.Status == resbook.Pending && r.Start > at {
				guard = min(guard, r.Start)
			}
		}
		before := e.Jobs()
		if err := e.AdvanceTo(ctx, at); err != nil {
			t.Fatalf("seed %d: AdvanceTo(%d): %v", seed, at, err)
		}
		// A bound that is too early only ever shows as a backfill that
		// did not happen, which no job record can tell; the book's own
		// audit of the index can, mid-run, before releases tidy it.
		if err := book.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: book invariants after AdvanceTo(%d): %v", seed, at, err)
		}
		// Jobs come back in queue order, the order the pass served them
		// in, so a reservation booked for an earlier job already binds
		// the later ones.
		for i, j := range e.Jobs() {
			if before[i].State != Queued || j.State == Queued {
				continue
			}
			want := model.Infinity
			switch {
			case j.Starved:
				guard = min(guard, j.Start)
				continue
			case j.Backfilled:
				want = guard
			}
			if j.GuardBound != want {
				t.Fatalf("seed %d: job %s placed at %d under bound %d, ledger scan says %d", seed, j.ID, at, j.GuardBound, want)
			}
		}
	}
	for i := 0; i < len(trace); {
		at := trace[i].At
		if et, ok := e.NextEvent(); ok && et < at {
			at = et
		}
		advance(at)
		first := i
		for ; i < len(trace) && trace[i].At <= at; i++ {
			if _, err := e.Submit(trace[i].Procs, trace[i].Dur); err != nil {
				t.Fatalf("seed %d: arrival %d: %v", seed, i, err)
			}
		}
		if i > first {
			advance(at)
		}
	}
	for step := 0; ; step++ {
		if done, total := e.progress(); done == total {
			return e.Jobs()
		}
		if step > len(trace)*drainGrace {
			t.Fatalf("seed %d: oracle run does not drain", seed)
		}
		at, ok := e.NextEvent()
		if !ok {
			at = e.Now() + e.cfg.StarveAge
		}
		advance(at)
	}
}

func TestBackfillGuardrailDifferential(t *testing.T) {
	const (
		capacity = 16
		jobs     = 60
		seeds    = 25
	)
	var totalBackfills, totalStarved uint64
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		book := resbook.New(capacity, 0)
		cfg := Config{
			Book:           book,
			Backfill:       true,
			StarveAttempts: 4,
			StarveAge:      120,
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		trace := randomTrace(rng, capacity, jobs)
		rep, err := e.Replay(context.Background(), trace)
		if err != nil {
			t.Fatalf("seed %d: Replay: %v", seed, err)
		}
		if rep.Completed != len(trace) {
			t.Fatalf("seed %d: completed %d of %d jobs", seed, rep.Completed, len(trace))
		}
		totalBackfills += rep.Backfills
		totalStarved += rep.Starved

		// Oracle 1: the guardrail property on every backfilled job, and
		// the bound itself against the ledger-scan run's.
		scanned := guardOracleRun(t, seed, cfg, trace)
		for i, j := range e.Jobs() {
			if j != scanned[i] {
				t.Fatalf("seed %d: job record diverged from the oracle run:\n  replay %+v\n  oracle %+v", seed, j, scanned[i])
			}
			if j.State != Done {
				t.Fatalf("seed %d: job %s finished %v, want Done", seed, j.ID, j.State)
			}
			if j.Backfilled && j.End > j.GuardBound {
				t.Fatalf("seed %d: backfilled job %s ends %d past its activation bound %d",
					seed, j.ID, j.End, j.GuardBound)
			}
		}

		// Oracle 2: all booked windows must co-exist in a fresh flat
		// profile — the engine never over-committed capacity at any
		// instant.
		oracle := profile.New(capacity, 0)
		for _, res := range book.List() {
			if res.Status != resbook.Released {
				t.Fatalf("seed %d: reservation %s left %v", seed, res.ID, res.Status)
			}
			if err := oracle.Reserve(res.Start, res.End, res.Procs); err != nil {
				t.Fatalf("seed %d: oracle rejects window [%d,%d)x%d: %v",
					seed, res.Start, res.End, res.Procs, err)
			}
		}
		if err := oracle.Check(); err != nil {
			t.Fatalf("seed %d: oracle profile invariants: %v", seed, err)
		}
		if err := book.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: book invariants: %v", seed, err)
		}
	}
	// The trace family must actually exercise both code paths, or the
	// differential assertions above are vacuous.
	if totalBackfills == 0 {
		t.Fatal("no backfill across all seeds; trace family too easy")
	}
	if totalStarved == 0 {
		t.Fatal("no starvation reservation across all seeds; trace family too easy")
	}
}
