// Package resbook implements the live reservation book behind the
// reschedd daemon: the mutable, concurrently accessed counterpart of
// the immutable availability profiles the batch CLIs schedule against
// (the paper's §2 RESSCHED setting, where a batch scheduler owns the
// reservation schedule and applications book against it).
//
// Concurrency model. The book is one schedule under one RWMutex. It
// holds the step function as a persistent copy-on-write tree (the flat
// deep-copy backend survives as the differential oracle, NewFlat), so
// a snapshot pins the tree's root under RLock in O(1), independent of
// how many reservations are booked, and commits copy only those of the
// O(log n) nodes their mutations touch that a snapshot may still hold:
// taking the snapshot ends the tree's edit, and the writes up to the
// next one share an edit and update the nodes it created in place.
// Outstanding snapshot roots stay frozen for the GC to reclaim.
//
// A scheduler takes a snapshot, computes a schedule against it without
// holding any lock (list scheduling is the expensive part), and then
// commits the resulting reservations. The commit is validated by
// capacity, not by version: under the write lock it reserves each
// request in the current tree, whose Reserve checks the processors are
// free. A schedule whose pieces all fit at that point is a valid
// schedule — its start times, and so its precedence and deadline, are
// fixed in the requests; only free capacity could have moved. When a
// piece no longer fits, the commit undoes the pieces it applied and
// fails with ErrStale, and the caller recomputes against a fresh
// snapshot — an optimistic-concurrency loop packaged as Transact.
// Commits that do not compete for the same processors never conflict,
// however their windows overlap.
//
// Lifecycle. Reservations move Pending → Active → Released. A commit
// books Pending reservations (capacity held, job not yet confirmed);
// Activate marks them confirmed; Release (also reachable directly
// from Pending, i.e. cancellation) returns the capacity to the
// profile. Released is terminal.
package resbook

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"resched/internal/model"
	"resched/internal/profile"
)

// Status is a reservation's lifecycle state.
type Status int

const (
	// Pending: booked, capacity held, not yet confirmed.
	Pending Status = iota
	// Active: confirmed; capacity held.
	Active
	// Released: capacity returned to the profile. Terminal.
	Released
)

func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Released:
		return "released"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// MarshalJSON renders the status as its lower-case name, the form the
// HTTP API uses.
func (s Status) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Errors returned by the book. ErrStale is the optimistic-concurrency
// signal: the book moved since the snapshot a commit was computed
// against, and the commit no longer fits it; the caller should retry
// against a fresh snapshot.
var (
	ErrStale    = errors.New("resbook: snapshot is stale")
	ErrNotFound = errors.New("resbook: no such reservation")
	ErrReleased = errors.New("resbook: reservation already released")
)

// Request is one reservation to commit: procs processors during
// [Start, End).
type Request struct {
	Start model.Time
	End   model.Time
	Procs int
}

// Reservation is one booked reservation with its lifecycle state. The
// book allocates one per ledger row and keeps it forever, so the struct
// stays in the 48-byte size class (TestReservationLayout): the Pending
// index below points at rows and stores nothing in them.
type Reservation struct {
	ID     string
	Start  model.Time
	End    model.Time
	Procs  int
	Status Status
}

// Snapshot is a consistent view of the book's schedule. Avail is the
// caller's to mutate (schedulers reserve task slots in it while
// searching): on the default persistent backend it is a lightweight
// copy-on-write handle sharing the book's frozen root — taking it cost
// O(1), and mutations path-copy without ever writing a shared node —
// while on the flat oracle backend it is a deep copy. Version is the
// mutation counter the snapshot was taken at, reported in the API and
// in ErrStale messages.
//
// A snapshot taken with SnapshotInto may have Avail alias the caller's
// dst, so it lives only as long as the caller leaves dst alone; the one
// Transact hands its callback is of that kind and dies when the
// callback returns.
type Snapshot struct {
	Version uint64
	Avail   profile.Intervals
}

// Book is a concurrent, versioned reservation book. The zero value is
// not usable; construct with New, NewFlat, or FromReservations.
//
// Exactly one of pprof (persistent backend, the default) and prof
// (flat oracle backend) is non-nil, fixed at construction. For pprof,
// mu guards the root-pointer swap a mutation publishes and the writes
// in place of its open edit; the nodes behind a root a Snapshot has
// cloned are immutable (Clone, under RLock, ends the edit) and safe to
// read lock-free through the handle.
type Book struct {
	capacity int
	origin   model.Time

	mu    sync.RWMutex
	pprof *profile.PersistentProfile //reschedvet:guardedby mu
	prof  *profile.Profile           //reschedvet:guardedby mu
	res   map[string]*Reservation    //reschedvet:guardedby mu

	// pending indexes the Pending rows: a binary min-heap of ledger rows
	// keyed by Start, so the backfill guardrail's "earliest Pending
	// activation" is the top instead of a scan of res. Deletion is lazy.
	// A row is pushed when it is filed and popped only once it is at the
	// top and no longer Pending, which Activate and Release — the two
	// writers that flip a status — see to before they unlock. Hence the
	// invariant readers rely on (and CheckInvariants audits): the top is
	// Pending or the heap is empty. Rows that left Pending deeper down
	// wait their turn; each costs its pointer until then, and each row is
	// pushed and popped at most once.
	pending []*Reservation //reschedvet:guardedby mu

	version atomic.Uint64
	nextID  uint64 //reschedvet:guardedby mu

	// scratch recycles the flat profiles Transact snapshots into, one
	// per call in flight, so an attempt against a small schedule
	// (SnapshotInto's flat arm) reuses backing arrays instead of
	// growing fresh ones.
	scratch sync.Pool
}

// pushPendingLocked adds a freshly filed Pending row to the index; the
// book's lock must be held.
//
//reschedvet:holds mu
func (b *Book) pushPendingLocked(r *Reservation) {
	h := append(b.pending, r)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].Start <= r.Start {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = r
	b.pending = h
}

// settlePendingLocked restores the index invariant after a row left
// Pending: it pops tops until one is Pending again. The book's lock
// must be held.
//
//reschedvet:holds mu
func (b *Book) settlePendingLocked() {
	h := b.pending
	for len(h) > 0 && h[0].Status != Pending {
		n := len(h) - 1
		last := h[n]
		h[n] = nil
		h = h[:n]
		if n == 0 {
			break
		}
		// Sift the former last entry down from the vacated root.
		i := 0
		for {
			child := 2*i + 1
			if child >= n {
				break
			}
			if child+1 < n && h[child+1].Start < h[child].Start {
				child++
			}
			if last.Start <= h[child].Start {
				break
			}
			h[i] = h[child]
			i = child
		}
		h[i] = last
	}
	b.pending = h
}

// New returns an empty book for a cluster of the given capacity whose
// schedule starts at origin.
func New(capacity int, origin model.Time) *Book {
	b := newBook(capacity, origin)
	b.pprof = profile.NewTree(capacity, origin)
	return b
}

// NewFlat is New on the flat deep-copy profile backend: every Snapshot
// copies the step function. It is the differential oracle the
// persistent backend is tested against.
func NewFlat(capacity int, origin model.Time) *Book {
	b := newBook(capacity, origin)
	b.prof = profile.New(capacity, origin)
	return b
}

// NewSharded checks that nshards is at least 1 and that epoch is
// positive when nshards > 1, then returns New(capacity, origin): the
// book is one tree whatever the shard count. It stays only because the
// benchmark module (bench/serve.go, bench/replay.go) calls it; ROADMAP
// item 1(c) routes those calls through one helper and deletes it.
func NewSharded(capacity int, origin model.Time, nshards int, epoch model.Duration) (*Book, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("resbook: shard count %d < 1", nshards)
	}
	if nshards > 1 && epoch <= 0 {
		return nil, fmt.Errorf("resbook: epoch %d must be positive with %d shards", epoch, nshards)
	}
	return New(capacity, origin), nil
}

func newBook(capacity int, origin model.Time) *Book {
	b := &Book{capacity: capacity, origin: origin, res: make(map[string]*Reservation)}
	b.scratch.New = func() any { return &profile.Profile{} }
	return b
}

// FromReservations returns a book pre-loaded with the given competing
// reservations, committed as Active (they represent already confirmed
// bookings, e.g. a reservation schedule extracted from a batch log).
// Reservations entirely before origin are dropped; partial overlaps
// are clipped to the horizon.
func FromReservations(capacity int, origin model.Time, rs []profile.Reservation) (*Book, error) {
	b := New(capacity, origin)
	if err := b.Seed(rs); err != nil {
		return nil, err
	}
	return b, nil
}

// Seed commits the given competing reservations as Active, clipping
// to the horizon as FromReservations does. It lets callers seed a
// book they constructed themselves.
func (b *Book) Seed(rs []profile.Reservation) error {
	for i, r := range rs {
		start, end := r.Start, r.End
		if start < b.origin {
			start = b.origin
		}
		if end <= start {
			continue
		}
		res, err := b.Reserve(start, end, r.Procs)
		if err != nil {
			return fmt.Errorf("resbook: seeding reservation %d: %w", i, err)
		}
		if err := b.Activate(res.ID); err != nil {
			return err
		}
	}
	return nil
}

// Capacity returns the cluster size.
func (b *Book) Capacity() int { return b.capacity }

// Origin returns the start of the book's horizon.
func (b *Book) Origin() model.Time { return b.origin }

// Version returns the current schedule version. It increases by one
// on every successful mutation.
func (b *Book) Version() uint64 { return b.version.Load() }

// Snapshot returns a consistent view of the current schedule with the
// version it was read at. The view is independent: the caller may
// mutate it freely (and scheduling algorithms do). On the persistent
// backend taking it is O(1) — one root pointer under RLock — and the
// frozen root keeps answering queries unchanged while later commits
// path-copy new roots beside it.
func (b *Book) Snapshot() Snapshot {
	return b.SnapshotInto(&profile.Profile{})
}

// SnapshotInto is Snapshot for callers that recycle flat profile
// buffers (the serving layer pools them across requests, Transact
// across attempts and calls). The returned Avail may be dst itself, so
// the snapshot is dead once dst is reused or handed back. On the flat
// oracle backend the schedule is copied into dst, reusing its backing
// arrays. On the persistent backend dst is used only when the schedule
// is small (fewer than profile.AutoTreeThreshold segments, where one
// O(n) copy buys flat probes cheaper than tree descents; DESIGN §17
// has the sweep): the segments are materialized into dst straight from
// the root and Avail is dst. Larger schedules skip dst entirely —
// Avail is a copy-on-write handle pinning the root.
func (b *Book) SnapshotInto(dst *profile.Profile) Snapshot {
	b.mu.RLock()
	defer b.mu.RUnlock()
	snap := Snapshot{Version: b.version.Load(), Avail: dst}
	switch {
	case b.prof != nil:
		b.prof.CloneInto(dst)
	case b.pprof.NumSegments() < profile.AutoTreeThreshold:
		// Small R: materialize the handful of segments into the pooled
		// flat profile, whose scans beat tree descents at this size. A
		// flat copy pins no node, so the tree's edit stays open.
		dst.Reset(b.capacity, b.origin)
		b.pprof.AppendSegmentsTo(dst)
	default:
		// Clone ends the tree's open edit — one atomic word, the only
		// thing a snapshot writes — so no later commit writes a node this
		// snapshot pins.
		snap.Avail = b.pprof.Clone()
	}
	return snap
}

// reserveChecks validates a reservation request against the book's
// horizon before the lock is taken, with the same messages the
// profile's own checks produce. Capacity conflicts are detected later,
// by the profile's Reserve under the lock.
func (b *Book) reserveChecks(start, end model.Time, procs int) error {
	if procs < 1 || procs > b.capacity {
		return fmt.Errorf("cannot reserve %d processors on a %d-processor cluster", procs, b.capacity)
	}
	if start < b.origin {
		return fmt.Errorf("reservation start %d before profile origin %d", start, b.origin)
	}
	if end <= start {
		return fmt.Errorf("reservation interval [%d,%d) is empty", start, end)
	}
	if end >= model.Infinity {
		return fmt.Errorf("reservation end %d beyond the scheduling horizon", end)
	}
	return nil
}

// reserveLocked books req on whichever profile backend the book runs;
// the book's lock must be held. The profile's Reserve checks the
// capacity. On the persistent backend the mutation writes O(log n)
// nodes — copies of those a snapshot handle may share, which stay
// untouched — and swaps the root.
//
//reschedvet:holds mu
func (b *Book) reserveLocked(req Request) error {
	if b.pprof != nil {
		return b.pprof.Reserve(req.Start, req.End, req.Procs)
	}
	return b.prof.Reserve(req.Start, req.End, req.Procs)
}

// unreserveLocked returns req's processors; the book's lock must be
// held. The profile holds every non-released reservation, so undoing
// one can only fail if the ledger and profile disagree: that is an
// invariant violation, and it panics.
//
//reschedvet:holds mu
func (b *Book) unreserveLocked(req Request) {
	var err error
	if b.pprof != nil {
		err = b.pprof.Unreserve(req.Start, req.End, req.Procs)
	} else {
		err = b.prof.Unreserve(req.Start, req.End, req.Procs)
	}
	if err != nil {
		panic(fmt.Sprintf("resbook: unreserve [%d,%d)x%d failed: %v", req.Start, req.End, req.Procs, err))
	}
}

// reservationID renders the n-th reservation's ID — fmt's "r%06d" —
// in one allocation, the string's own.
func reservationID(n uint64) string {
	var buf [24]byte
	id := append(buf[:0], 'r')
	for pad := uint64(100_000); pad > n && pad > 1; pad /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendUint(id, n, 10))
}

// newRowLocked files the ledger row for a booked request and indexes
// it as Pending; the book's lock must be held.
//
//reschedvet:holds mu
func (b *Book) newRowLocked(req Request) *Reservation {
	b.nextID++
	r := &Reservation{
		ID:     reservationID(b.nextID),
		Start:  req.Start,
		End:    req.End,
		Procs:  req.Procs,
		Status: Pending,
	}
	b.res[r.ID] = r
	b.pushPendingLocked(r)
	return r
}

// Reserve books a single Pending reservation at the current version.
// Unlike Commit it needs no snapshot: the capacity check happens under
// the lock, so it fails only if the processors genuinely are not free.
func (b *Book) Reserve(start, end model.Time, procs int) (Reservation, error) {
	if err := b.reserveChecks(start, end, procs); err != nil {
		return Reservation{}, err
	}
	req := Request{Start: start, End: end, Procs: procs}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.reserveLocked(req); err != nil {
		return Reservation{}, err
	}
	r := b.newRowLocked(req)
	b.version.Add(1)
	return *r, nil
}

// Commit atomically books all requests if each still fits the current
// schedule. When one does not and the book has moved since snap was
// taken, it returns ErrStale (wrapped) and books nothing; the caller
// should take a fresh Snapshot, recompute, and retry. When the book is
// still at snap.Version the schedule was computed against this very
// book, so a misfit is a caller bug: the capacity error is returned
// unwrapped, again with nothing booked.
func (b *Book) Commit(snap Snapshot, reqs []Request) ([]Reservation, error) {
	return b.commit(snap, reqs, b.origin)
}

// errFenced marks the ErrStale of a commit refused by its fence.
var errFenced = errors.New("fenced")

// commit is Commit with a fence: it also fails with ErrStale (and
// errFenced), booking nothing, when a Pending reservation starts
// before fence. The check
// runs under the write lock before any request is applied, so it sees
// every Pending row committed since the caller read its bound. No
// Pending row starts before the origin, so the origin is no fence.
func (b *Book) commit(snap Snapshot, reqs []Request, fence model.Time) ([]Reservation, error) {
	for i, req := range reqs {
		if err := b.reserveChecks(req.Start, req.End, req.Procs); err != nil {
			return nil, fmt.Errorf("resbook: request %d: %w", i, err)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) > 0 && b.pending[0].Start < fence {
		return nil, fmt.Errorf("%w: %w: reservation %s activates at %d, before %d", ErrStale, errFenced, b.pending[0].ID, b.pending[0].Start, fence)
	}
	for i, req := range reqs {
		if err := b.reserveLocked(req); err != nil {
			for k := i - 1; k >= 0; k-- {
				b.unreserveLocked(reqs[k])
			}
			if v := b.version.Load(); v != snap.Version {
				return nil, fmt.Errorf("%w: computed at version %d, book at %d: request %d: %v", ErrStale, snap.Version, v, i, err)
			}
			return nil, fmt.Errorf("resbook: request %d: %w", i, err)
		}
	}
	out := make([]Reservation, 0, len(reqs))
	for _, req := range reqs {
		out = append(out, *b.newRowLocked(req))
	}
	b.version.Add(1)
	return out, nil
}

// Get returns a copy of the reservation with the given ID.
func (b *Book) Get(id string) (Reservation, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.res[id]
	if !ok {
		return Reservation{}, false
	}
	return *r, true
}

// List returns copies of all reservations (including released ones),
// in the order they were booked.
func (b *Book) List() []Reservation {
	b.mu.RLock()
	out := make([]Reservation, 0, len(b.res))
	for _, r := range b.res {
		out = append(out, *r)
	}
	b.mu.RUnlock()
	// Shorter IDs first: past r999999 the zero padding runs out, and
	// r1000000 must not sort before it.
	slices.SortFunc(out, func(x, y Reservation) int {
		return cmp.Or(cmp.Compare(len(x.ID), len(y.ID)), cmp.Compare(x.ID, y.ID))
	})
	return out
}

// EarliestPendingActivation returns the earliest time at or after
// `after` that a Pending reservation activates. A Pending window whose
// start has already passed is overdue and clamps to `after` itself.
// ok is false when no reservation is Pending. Backfill schedulers use
// this as the hard bound opportunistic placements must finish by. It
// reads the top of the Pending index — O(1), however many rows the
// ledger holds.
func (b *Book) EarliestPendingActivation(after model.Time) (at model.Time, ok bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.pending) == 0 {
		return 0, false
	}
	return max(b.pending[0].Start, after), true
}

// Activate confirms a Pending reservation. Activating an Active
// reservation is a no-op; a Released one is an error.
func (b *Book) Activate(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.res[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.Status == Released {
		return fmt.Errorf("%w: %s", ErrReleased, id)
	}
	if r.Status == Pending {
		r.Status = Active
		b.settlePendingLocked()
		b.version.Add(1)
	}
	return nil
}

// Release cancels a Pending or Active reservation, returning its
// processors to the profile. Releasing twice is an error.
func (b *Book) Release(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.res[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if r.Status == Released {
		return fmt.Errorf("%w: %s", ErrReleased, id)
	}
	b.unreserveLocked(Request{Start: r.Start, End: r.End, Procs: r.Procs})
	r.Status = Released
	b.settlePendingLocked()
	b.version.Add(1)
	return nil
}

// Transact runs the optimistic-concurrency loop: snapshot, compute,
// commit, retrying on ErrStale up to maxAttempts times. fn receives a
// private snapshot and returns the reservation requests to commit
// (returning an empty slice commits nothing). The snapshot is fn's
// only for the duration of the call: snap.Avail may be a flat buffer
// the book recycles for the next attempt and the next Transact, so fn
// may mutate it freely but must not keep it, or anything aliasing it,
// once it returns (callers that need a view to keep take their own
// Snapshot). It reports the booked reservations and how many
// version-conflict retries occurred. Any error from fn, from ctx, or a
// non-stale commit failure aborts the loop.
func (b *Book) Transact(ctx context.Context, maxAttempts int, fn func(Snapshot) ([]Request, error)) ([]Reservation, int, error) {
	return b.TransactBefore(ctx, maxAttempts, b.origin, fn)
}

// TransactBefore is Transact for a caller that read a bound on the
// Pending reservations before it started — the backfill guardrail,
// which lets a job start now only if it ends by the earliest Pending
// activation. Each commit also fails with ErrStale when a Pending
// reservation starts before fence, checked under the write lock, so a
// Pending row committed by another writer after the caller read its
// bound cannot be overrun. A fence refusal ends the loop at once: a
// fresh snapshot would meet the same Pending row, so it is returned
// as ErrStale without another attempt.
func (b *Book) TransactBefore(ctx context.Context, maxAttempts int, fence model.Time, fn func(Snapshot) ([]Request, error)) ([]Reservation, int, error) {
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	prof := b.scratch.Get().(*profile.Profile)
	defer b.scratch.Put(prof)
	retries := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, retries, err
		}
		snap := b.SnapshotInto(prof)
		reqs, err := fn(snap)
		if err != nil {
			return nil, retries, err
		}
		out, err := b.commit(snap, reqs, fence)
		if err == nil {
			return out, retries, nil
		}
		if !errors.Is(err, ErrStale) || errors.Is(err, errFenced) {
			return nil, retries, err
		}
		retries++
	}
	return nil, retries, fmt.Errorf("%w: gave up after %d attempts", ErrStale, maxAttempts)
}

// checkPendingLocked audits the Pending index against the ledger: the
// top is Pending or the heap is empty, heap order holds, every entry is
// a ledger row filed once, and every Pending row is among them. The
// book's lock must be held.
//
//reschedvet:holds mu
func (b *Book) checkPendingLocked() error {
	h := b.pending
	if len(h) > 0 && h[0].Status != Pending {
		return fmt.Errorf("pending index: top %s is %v", h[0].ID, h[0].Status)
	}
	indexed := make(map[*Reservation]bool, len(h))
	for i, r := range h {
		if parent := h[(i-1)/2]; parent.Start > r.Start {
			return fmt.Errorf("pending index: %s (start %d) sits above %s (start %d)", parent.ID, parent.Start, r.ID, r.Start)
		}
		if b.res[r.ID] != r {
			return fmt.Errorf("pending index: entry %s is not a ledger row", r.ID)
		}
		if indexed[r] {
			return fmt.Errorf("pending index: row %s indexed twice", r.ID)
		}
		indexed[r] = true
	}
	for _, r := range b.res {
		if r.Status == Pending && !indexed[r] {
			return fmt.Errorf("pending index: Pending row %s is missing", r.ID)
		}
	}
	return nil
}

// CheckInvariants validates the book: the Pending index agrees with
// the ledger, the profile satisfies its representation invariants, and
// replaying the ledger's non-released reservations onto an empty tree
// reproduces the profile's segments exactly (no lost and no
// double-booked capacity). The replay is O(R log R).
func (b *Book) CheckInvariants() error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if err := b.checkPendingLocked(); err != nil {
		return fmt.Errorf("resbook: %w", err)
	}
	var got []profile.Segment
	if b.pprof != nil {
		if err := b.pprof.Check(); err != nil {
			return fmt.Errorf("resbook: %w", err)
		}
		got = b.pprof.Segments()
	} else {
		if err := b.prof.Check(); err != nil {
			return fmt.Errorf("resbook: %w", err)
		}
		got = b.prof.Segments()
	}
	want := profile.NewTree(b.capacity, b.origin)
	for _, r := range b.res {
		if r.Status == Released {
			continue
		}
		if err := want.Reserve(r.Start, r.End, r.Procs); err != nil {
			return fmt.Errorf("resbook: ledger replay of %s: %w", r.ID, err)
		}
	}
	ws := want.Segments()
	for i := 0; i < max(len(ws), len(got)); i++ {
		if i >= len(ws) || i >= len(got) || ws[i] != got[i] {
			return fmt.Errorf("resbook: ledger and profile differ at segment %d: ledger %s, profile %s (%d and %d segments)",
				i, segmentAt(ws, i), segmentAt(got, i), len(ws), len(got))
		}
	}
	return nil
}

// segmentAt renders segs[i] for CheckInvariants' report, or "none".
func segmentAt(segs []profile.Segment, i int) string {
	if i >= len(segs) {
		return "none"
	}
	return fmt.Sprintf("[%d:%d free]", segs[i].Start, segs[i].Free)
}
