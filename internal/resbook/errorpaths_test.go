package resbook

import (
	"context"
	"errors"
	"strings"
	"testing"

	"resched/internal/profile"
)

// TestTransactExhaustionState pins down the book's state after the
// optimistic-concurrency loop gives up: the error wraps ErrStale, the
// retry count equals the attempt budget, and none of the loser's
// requests leaked into the ledger or the profile.
func TestTransactExhaustionState(t *testing.T) {
	b := New(8, 0)
	versionBefore := b.Version()
	const attempts = 4
	_, retries, err := b.Transact(context.Background(), attempts, func(snap Snapshot) ([]Request, error) {
		// Concurrent mutation between snapshot and commit, taking the
		// processors the attempt is computed to use: every attempt
		// goes stale.
		fit, err := snap.Avail.EarliestFitChecked(2, 10, 0)
		if err != nil {
			t.Fatalf("fit: %v", err)
		}
		if _, err := b.Reserve(fit, fit+10, 7); err != nil {
			t.Fatalf("conflicting Reserve: %v", err)
		}
		return []Request{{Start: fit, End: fit + 10, Procs: 2}}, nil
	})
	if !errors.Is(err, ErrStale) {
		t.Fatalf("exhausted Transact: %v, want ErrStale", err)
	}
	if retries != attempts {
		t.Errorf("retries = %d, want %d", retries, attempts)
	}
	// Only the conflicting reservations moved the version; the
	// transaction itself booked nothing.
	if got, want := b.Version(), versionBefore+attempts; got != want {
		t.Errorf("version = %d, want %d", got, want)
	}
	for _, r := range b.List() {
		if r.Procs != 7 {
			t.Errorf("stale transaction leaked reservation %+v", r)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants after exhaustion: %v", err)
	}
}

// TestTransactComputeError checks that an error from the compute
// callback aborts immediately: no retries burned, nothing booked.
func TestTransactComputeError(t *testing.T) {
	b := New(8, 0)
	boom := errors.New("compute exploded")
	calls := 0
	_, retries, err := b.Transact(context.Background(), 5, func(Snapshot) ([]Request, error) {
		calls++
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Transact: %v, want the compute error", err)
	}
	if calls != 1 || retries != 0 {
		t.Errorf("calls=%d retries=%d, want 1 and 0", calls, retries)
	}
}

// TestTransactClampsAttempts: a non-positive attempt budget still
// runs the loop once rather than reporting exhaustion it never tried.
func TestTransactClampsAttempts(t *testing.T) {
	b := New(8, 0)
	booked, retries, err := b.Transact(context.Background(), 0, func(Snapshot) ([]Request, error) {
		return []Request{{Start: 0, End: 5, Procs: 1}}, nil
	})
	if err != nil || len(booked) != 1 || retries != 0 {
		t.Fatalf("Transact with 0 attempts: booked=%v retries=%d err=%v", booked, retries, err)
	}
}

// TestReleaseUnknownLeavesBookUntouched: releasing an ID that was
// never issued is ErrNotFound and must not move the version.
func TestReleaseUnknownLeavesBookUntouched(t *testing.T) {
	b := New(4, 0)
	if _, err := b.Reserve(0, 10, 2); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	before := b.Version()
	err := b.Release("r999999")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Release unknown: %v, want ErrNotFound", err)
	}
	if !strings.Contains(err.Error(), "r999999") {
		t.Errorf("error %q does not name the offending ID", err)
	}
	if b.Version() != before {
		t.Errorf("failed Release moved version %d -> %d", before, b.Version())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants after failed release: %v", err)
	}
}

// TestSnapshotOutlivesReleasedBook: a snapshot taken while
// reservations were live stays valid and independent after every one
// of them is released and the book is effectively closed out — the
// copy-on-read contract the serving layer depends on. Committing
// against the defunct version once the processors it needs are taken
// again must fail stale without corrupting the schedule.
func TestSnapshotOutlivesReleasedBook(t *testing.T) {
	b := New(8, 0)
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		r, err := b.Reserve(int64(10*i), int64(10*i+10), 2)
		if err != nil {
			t.Fatalf("Reserve %d: %v", i, err)
		}
		ids = append(ids, r.ID)
	}
	snap := b.Snapshot()
	rendered := snap.Avail.String()

	for _, id := range ids {
		if err := b.Release(id); err != nil {
			t.Fatalf("Release %s: %v", id, err)
		}
	}
	if got := b.Snapshot().Avail.NumSegments(); got != 1 {
		t.Fatalf("released book still has %d segments", got)
	}

	// The old snapshot is untouched by the releases and still usable.
	if snap.Avail.String() != rendered {
		t.Errorf("snapshot mutated by releases:\n  was %s\n  now %s", rendered, snap.Avail.String())
	}
	if err := snap.Avail.Check(); err != nil {
		t.Errorf("snapshot invariants: %v", err)
	}
	if _, err := snap.Avail.EarliestFitChecked(8, 5, 0); err != nil {
		t.Errorf("query against old snapshot: %v", err)
	}

	// A commit computed against the defunct snapshot fails stale and
	// books nothing once its processors are gone.
	if _, err := b.Reserve(0, 5, 8); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	booked := len(b.List())
	if _, err := b.Commit(snap, []Request{{Start: 0, End: 5, Procs: 1}}); !errors.Is(err, ErrStale) {
		t.Fatalf("Commit at stale version: %v, want ErrStale", err)
	}
	if got := len(b.List()); got != booked {
		t.Errorf("stale commit filed %d rows", got-booked)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stale commit: %v", err)
	}
}

// TestSnapshotIntoReusesDirtyProfile: SnapshotInto must fully
// overwrite whatever schedule the destination held before, matching
// Snapshot exactly — the pooled scratch profiles cycle through
// arbitrary predecessor states.
func TestSnapshotIntoReusesDirtyProfile(t *testing.T) {
	b := New(8, 0)
	if _, err := b.Reserve(5, 15, 3); err != nil {
		t.Fatalf("Reserve: %v", err)
	}

	dirty := profile.New(16, 100) // wrong capacity, wrong origin, own segments
	if err := dirty.Reserve(200, 300, 7); err != nil {
		t.Fatalf("dirtying profile: %v", err)
	}
	into := b.SnapshotInto(dirty)
	snap := b.Snapshot()
	if into.Version != snap.Version {
		t.Errorf("SnapshotInto version %d, Snapshot version %d", into.Version, snap.Version)
	}
	if dirty.String() != snap.Avail.String() {
		t.Errorf("SnapshotInto left stale state:\n  into %s\n  want %s", dirty, snap.Avail)
	}
	if err := dirty.Check(); err != nil {
		t.Errorf("reused profile invariants: %v", err)
	}
}
