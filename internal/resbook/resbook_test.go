package resbook

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"resched/internal/model"
	"resched/internal/profile"
)

func TestReserveLifecycle(t *testing.T) {
	b := New(8, 0)
	v0 := b.Version()

	r, err := b.Reserve(10, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Pending {
		t.Errorf("new reservation status %v, want pending", r.Status)
	}
	if b.Version() != v0+1 {
		t.Errorf("version %d after Reserve, want %d", b.Version(), v0+1)
	}
	if got := b.Snapshot().Avail.FreeAt(15); got != 5 {
		t.Errorf("5 free expected at t=15, got %d", got)
	}

	if err := b.Activate(r.ID); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(r.ID)
	if !ok || got.Status != Active {
		t.Errorf("after Activate: %+v, %v", got, ok)
	}
	// Activate is idempotent on Active reservations.
	v := b.Version()
	if err := b.Activate(r.ID); err != nil {
		t.Fatal(err)
	}
	if b.Version() != v {
		t.Error("idempotent Activate bumped the version")
	}

	if err := b.Release(r.ID); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Get(r.ID); got.Status != Released {
		t.Errorf("after Release: status %v", got.Status)
	}
	if got := b.Snapshot().Avail.FreeAt(15); got != 8 {
		t.Errorf("released capacity not returned: %d free at t=15", got)
	}

	// Released is terminal.
	if err := b.Release(r.ID); !errors.Is(err, ErrReleased) {
		t.Errorf("double Release: %v, want ErrReleased", err)
	}
	if err := b.Activate(r.ID); !errors.Is(err, ErrReleased) {
		t.Errorf("Activate after Release: %v, want ErrReleased", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownReservation(t *testing.T) {
	b := New(8, 0)
	if _, ok := b.Get("r000404"); ok {
		t.Error("Get on empty book succeeded")
	}
	if err := b.Activate("r000404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Activate unknown: %v, want ErrNotFound", err)
	}
	if err := b.Release("r000404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Release unknown: %v, want ErrNotFound", err)
	}
}

func TestCommitVersionCheck(t *testing.T) {
	b := New(8, 0)
	snap := b.Snapshot()

	// A mutation after the snapshot makes the commit stale.
	if _, err := b.Reserve(0, 10, 1); err != nil {
		t.Fatal(err)
	}
	_, err := b.Commit(snap, []Request{{Start: 20, End: 30, Procs: 2}})
	if !errors.Is(err, ErrStale) {
		t.Fatalf("commit on stale snapshot: %v, want ErrStale", err)
	}

	// A fresh snapshot commits fine, atomically booking both requests.
	snap = b.Snapshot()
	out, err := b.Commit(snap, []Request{
		{Start: 20, End: 30, Procs: 2},
		{Start: 25, End: 40, Procs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("committed %d reservations, want 2", len(out))
	}
	if got := b.Snapshot().Avail.FreeAt(27); got != 3 {
		t.Errorf("3 free expected at t=27, got %d", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRollsBackOnFailure(t *testing.T) {
	b := New(4, 0)
	snap := b.Snapshot()
	before := b.Snapshot().Avail.String()

	// Second request oversubscribes the cluster: the whole commit must
	// fail and leave no trace of the first.
	_, err := b.Commit(snap, []Request{
		{Start: 0, End: 10, Procs: 2},
		{Start: 5, End: 15, Procs: 3},
	})
	if err == nil || errors.Is(err, ErrStale) {
		t.Fatalf("oversubscribing commit: %v", err)
	}
	if got := b.Snapshot().Avail.String(); got != before {
		t.Errorf("failed commit left residue: %s, want %s", got, before)
	}
	if len(b.List()) != 0 {
		t.Errorf("failed commit left %d ledger entries", len(b.List()))
	}
	if b.Version() != snap.Version {
		t.Errorf("failed commit bumped version to %d", b.Version())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	b := New(8, 0)
	snap := b.Snapshot()
	// Mutating the snapshot must not leak into the book.
	if err := snap.Avail.Reserve(0, 100, 8); err != nil {
		t.Fatal(err)
	}
	if got := b.Snapshot().Avail.FreeAt(50); got != 8 {
		t.Errorf("snapshot mutation leaked into the book: %d free", got)
	}
}

// TestFlatSnapshotIsolation is TestSnapshotIsolation on the flat
// backend, single- and multi-shard: its snapshots copy the shards'
// profiles into the caller's buffer, and a snapshot that handed out a
// shard's live profile instead would let staging write the book.
func TestFlatSnapshotIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		b, err := NewShardedFlat(8, 0, shards, model.Hour)
		if err != nil {
			t.Fatal(err)
		}
		snap := b.Snapshot()
		if err := snap.Avail.Reserve(0, 100, 8); err != nil {
			t.Fatal(err)
		}
		if got := b.Snapshot().Avail.FreeAt(50); got != 8 {
			t.Errorf("%d shards: snapshot mutation leaked into the book: %d free", shards, got)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Errorf("%d shards: %v", shards, err)
		}
	}
}

func TestFromReservations(t *testing.T) {
	rs := []profile.Reservation{
		{Start: -10, End: 20, Procs: 2}, // clipped to origin
		{Start: 30, End: 40, Procs: 4},
		{Start: -20, End: -5, Procs: 1}, // entirely in the past: dropped
	}
	b, err := FromReservations(8, 0, rs)
	if err != nil {
		t.Fatal(err)
	}
	list := b.List()
	if len(list) != 2 {
		t.Fatalf("%d seeded reservations, want 2", len(list))
	}
	for _, r := range list {
		if r.Status != Active {
			t.Errorf("seeded reservation %s status %v, want active", r.ID, r.Status)
		}
	}
	if got := b.Snapshot().Avail.FreeAt(10); got != 6 {
		t.Errorf("6 free expected at t=10, got %d", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Oversubscribed seed data is rejected.
	if _, err := FromReservations(2, 0, []profile.Reservation{{Start: 0, End: 10, Procs: 3}}); err == nil {
		t.Error("oversubscribed seed accepted")
	}
}

func TestTransactRetriesOnStale(t *testing.T) {
	b := New(8, 0)
	calls := 0
	out, retries, err := b.Transact(context.Background(), 5, func(snap Snapshot) ([]Request, error) {
		calls++
		if calls == 1 {
			// Interleave a conflicting mutation so the first commit is
			// computed against a stale snapshot.
			if _, err := b.Reserve(0, 10, 1); err != nil {
				return nil, err
			}
		}
		return []Request{{Start: 20, End: 30, Procs: 2}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 || calls != 2 {
		t.Errorf("retries = %d, calls = %d; want 1 and 2", retries, calls)
	}
	if len(out) != 1 {
		t.Fatalf("booked %d reservations, want 1", len(out))
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTransactGivesUp(t *testing.T) {
	b := New(8, 0)
	_, retries, err := b.Transact(context.Background(), 3, func(snap Snapshot) ([]Request, error) {
		// Always conflict.
		if _, err := b.Reserve(0, 1000, 1); err != nil {
			return nil, err
		}
		return []Request{{Start: 0, End: 10, Procs: 1}}, nil
	})
	if !errors.Is(err, ErrStale) {
		t.Fatalf("Transact under permanent conflict: %v, want ErrStale", err)
	}
	if retries != 3 {
		t.Errorf("retries = %d, want 3", retries)
	}
}

func TestTransactHonorsContext(t *testing.T) {
	b := New(8, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := b.Transact(ctx, 5, func(Snapshot) ([]Request, error) {
		t.Error("fn called under canceled context")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Transact under canceled ctx: %v", err)
	}
}

func TestReserveValidation(t *testing.T) {
	b := New(4, 100)
	cases := []struct {
		name       string
		start, end model.Time
		procs      int
	}{
		{"before origin", 0, 200, 1},
		{"empty interval", 200, 200, 1},
		{"inverted interval", 300, 200, 1},
		{"zero procs", 200, 300, 0},
		{"beyond capacity", 200, 300, 5},
		{"beyond horizon", 200, model.Infinity, 1},
	}
	for _, c := range cases {
		if _, err := b.Reserve(c.start, c.end, c.procs); err == nil {
			t.Errorf("%s: Reserve(%d, %d, %d) accepted", c.name, c.start, c.end, c.procs)
		}
	}
	if b.Version() != 0 {
		t.Errorf("rejected reserves bumped version to %d", b.Version())
	}
}

// TestReservationIDFormat pins the hand-rolled ID rendering to the
// fmt verb it replaced: six digits zero-padded, wider past 999999.
func TestReservationIDFormat(t *testing.T) {
	for n, want := range map[uint64]string{1: "r000001", 999_999: "r999999", 1_000_000: "r1000000"} {
		if got := reservationID(n); got != want {
			t.Errorf("reservationID(%d) = %q, want %q", n, got, want)
		}
	}
	for _, n := range []uint64{0, 9, 10, 99_999, 100_000, 123_456, 1<<64 - 1} {
		if got, want := reservationID(n), fmt.Sprintf("r%06d", n); got != want {
			t.Errorf("reservationID(%d) = %q, want %q", n, got, want)
		}
	}
}

// TestListOrderPastSixDigits: IDs are zero-padded to six digits, so a
// plain string sort files r1000000 before r999999; List must not.
func TestListOrderPastSixDigits(t *testing.T) {
	b := New(8, 0)
	b.nextID.Store(999_997)
	for i := 0; i < 4; i++ {
		_, err := b.Reserve(model.Time(10*i), model.Time(10*i+5), 1)
		mustNil(t, err)
	}
	var got []string
	for _, r := range b.List() {
		got = append(got, r.ID)
	}
	want := []string{"r999998", "r999999", "r1000000", "r1000001"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("List order %v, want %v", got, want)
	}
}
