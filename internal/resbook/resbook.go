// Package resbook implements the live reservation book behind the
// reschedd daemon: the mutable, concurrently accessed counterpart of
// the immutable availability profiles the batch CLIs schedule against
// (the paper's §2 RESSCHED setting, where a batch scheduler owns the
// reservation schedule and applications book against it).
//
// Concurrency model. The book is split into time-epoch shards, each
// guarding its window of the schedule with its own RWMutex and a
// monotonically increasing mutation stamp. Each shard holds its window
// of the step function as a persistent copy-on-write tree (the flat
// deep-copy backend survives as the differential oracle, NewShardedFlat),
// so a snapshot grabs one immutable root pointer + stamp per shard
// under RLock — O(#shards), independent of how many reservations are
// booked — and commits copy only those of the O(log n) nodes their
// mutations touch that a snapshot may still hold: taking the snapshot
// ends the shard handle's edit, and the writes up to the next one
// share an edit and update the nodes it created in place. Outstanding
// snapshot roots stay frozen for the GC to reclaim. A scheduler takes
// a snapshot — the concatenated availability handle plus the per-shard
// stamps it was read at — computes a schedule against it without
// holding any lock (list scheduling is the expensive part), and then
// commits the resulting reservations: the commit locks only the shards the
// reservations touch, in ascending index order, and revalidates their
// stamps. If any of those shards moved in between, the commit fails
// with ErrStale and the caller recomputes against a fresh snapshot —
// an optimistic-concurrency loop packaged as Transact. Commits landing
// in disjoint epochs lock disjoint shards and proceed in parallel.
//
// New returns a single-shard book, which behaves exactly like a book
// with one global lock and version; NewSharded opts into partitioned
// serving for heavy concurrent traffic.
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
// signal: the snapshot a commit was computed against is no longer
// current, and the caller should retry against a fresh one.
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
// copy-on-write handle sharing the shards' frozen roots — taking it
// cost O(#shards), and mutations path-copy without ever writing a
// shared node — while on the flat oracle backend it is a deep copy.
// Committing requires the stamps of every shard the commit touches to
// still match Epochs. Version is the global mutation counter the
// snapshot was taken at, reported in the API and in ErrStale messages.
//
// A snapshot taken with SnapshotInto may have Avail alias the caller's
// dst, so it lives only as long as the caller leaves dst alone; the one
// Transact hands its callback is of that kind and dies when the
// callback returns.
type Snapshot struct {
	Version uint64
	Epochs  []uint64
	Avail   profile.Intervals
}

// bookShard is one time-epoch partition of the schedule: the window
// [start, end) of the global horizon, with a profile holding the
// clipped pieces of the reservations that overlap the window and the
// ledger rows of the reservations that start in it. Exactly one of
// pprof (persistent backend, the default) and prof (flat oracle
// backend) is non-nil, fixed at construction. stamp counts the
// mutations that touched the shard; pprof, prof, res, pending and stamp
// are guarded by mu — for pprof that guards the root-pointer swap a
// mutation publishes and the writes in place of its open edit; the
// nodes behind a root a Snapshot has cloned are immutable (Clone, under
// RLock, ends the edit) and safe to read lock-free through the handle.
type bookShard struct {
	start model.Time
	end   model.Time

	mu    sync.RWMutex
	stamp uint64                     //reschedvet:guardedby mu
	pprof *profile.PersistentProfile //reschedvet:guardedby mu
	prof  *profile.Profile           //reschedvet:guardedby mu
	res   map[string]*Reservation    //reschedvet:guardedby mu

	// pending indexes the shard's Pending rows: a binary min-heap of
	// ledger rows keyed by Start, so the backfill guardrail's "earliest
	// Pending activation" is the top instead of a scan of res. Deletion
	// is lazy. A row is pushed when it is filed and popped only once it
	// is at the top and no longer Pending, which Activate and Release —
	// the two writers that flip a status — see to before they unlock.
	// Hence the invariant readers rely on (and CheckInvariants audits):
	// the top is Pending or the heap is empty. Rows that left Pending
	// deeper down wait their turn; each costs its pointer until then,
	// and each row is pushed and popped at most once.
	pending []*Reservation //reschedvet:guardedby mu
}

// pushPendingLocked adds a freshly filed Pending row to the shard's
// index; the shard's lock must be held.
//
//reschedvet:holds mu
func (sh *bookShard) pushPendingLocked(r *Reservation) {
	h := append(sh.pending, r)
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
	sh.pending = h
}

// settlePendingLocked restores the index invariant after a row of the
// shard left Pending: it pops tops until one is Pending again. The
// shard's lock must be held.
//
//reschedvet:holds mu
func (sh *bookShard) settlePendingLocked() {
	h := sh.pending
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
	sh.pending = h
}

// Book is a concurrent, versioned reservation book. The zero value is
// not usable; construct with New, NewSharded, or FromReservations.
type Book struct {
	capacity   int
	origin     model.Time
	epoch      model.Duration
	persistent bool
	shards     []bookShard

	version atomic.Uint64
	nextID  atomic.Uint64

	// scratch recycles the flat profiles Transact snapshots into, one
	// per call in flight, so an attempt against a small schedule
	// (SnapshotInto's flat arm) reuses backing arrays instead of
	// growing fresh ones.
	scratch sync.Pool
}

// New returns an empty single-shard book for a cluster of the given
// capacity whose schedule starts at origin. A single-shard book
// serializes all mutations, and its per-shard stamp coincides with the
// global version — the exact semantics of the pre-sharding book.
func New(capacity int, origin model.Time) *Book {
	b, err := NewSharded(capacity, origin, 1, 0)
	if err != nil {
		panic(err) // one shard with no epoch is always valid
	}
	return b
}

// NewSharded returns an empty book partitioned into nshards time
// epochs of the given length: shard i owns [origin + i·epoch,
// origin + (i+1)·epoch), and the last shard extends to the horizon.
// Commits into disjoint epochs lock disjoint shards and run in
// parallel; reservations spanning epochs lock the covered shards in
// ascending order. The shards hold persistent copy-on-write profile
// roots, so Snapshot is O(nshards) regardless of reservation count.
func NewSharded(capacity int, origin model.Time, nshards int, epoch model.Duration) (*Book, error) {
	return newSharded(capacity, origin, nshards, epoch, true)
}

// NewShardedFlat is NewSharded on the flat deep-copy profile backend:
// every Snapshot clones the assembled step function. It is the
// differential oracle the persistent backend is tested against, and a
// fallback for workloads where flat copies measure faster.
func NewShardedFlat(capacity int, origin model.Time, nshards int, epoch model.Duration) (*Book, error) {
	return newSharded(capacity, origin, nshards, epoch, false)
}

func newSharded(capacity int, origin model.Time, nshards int, epoch model.Duration, persistent bool) (*Book, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("resbook: shard count %d < 1", nshards)
	}
	if nshards > 1 && epoch <= 0 {
		return nil, fmt.Errorf("resbook: epoch %d must be positive with %d shards", epoch, nshards)
	}
	b := &Book{
		capacity:   capacity,
		origin:     origin,
		epoch:      epoch,
		persistent: persistent,
		shards:     make([]bookShard, nshards),
	}
	b.scratch.New = func() any { return &profile.Profile{} }
	for i := range b.shards {
		sh := &b.shards[i]
		sh.start = origin + model.Time(i)*model.Time(epoch)
		sh.end = origin + model.Time(i+1)*model.Time(epoch)
		if i == len(b.shards)-1 {
			sh.end = model.Infinity
		}
		if persistent {
			// Distinct seed bases keep sibling windows on disjoint
			// priority streams so the concatenated snapshot treap stays
			// balanced.
			sh.pprof = profile.NewPersistentWindow(capacity, sh.start, sh.end, uint64(i)<<32)
		} else {
			sh.prof = profile.New(capacity, origin)
		}
		sh.res = make(map[string]*Reservation)
	}
	return b, nil
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
// book they constructed themselves — in particular a sharded one.
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

// NumShards returns the number of time-epoch shards.
func (b *Book) NumShards() int { return len(b.shards) }

// Persistent reports whether the book is on the copy-on-write
// persistent profile backend (the default) rather than the flat
// deep-copy oracle.
func (b *Book) Persistent() bool { return b.persistent }

// Version returns the current schedule version. It increases by one
// on every successful mutation.
func (b *Book) Version() uint64 { return b.version.Load() }

// shardFor returns the index of the shard owning time t.
func (b *Book) shardFor(t model.Time) int {
	if len(b.shards) == 1 {
		return 0
	}
	if t <= b.origin {
		return 0
	}
	i := int((t - b.origin) / model.Time(b.epoch))
	if i >= len(b.shards) {
		i = len(b.shards) - 1
	}
	return i
}

// shardSpan returns the inclusive shard index range a reservation
// window touches.
func (b *Book) shardSpan(start, end model.Time) (int, int) {
	return b.shardFor(start), b.shardFor(end - 1)
}

// lockShards write-locks shards[lo..hi]. Acquisition is strictly in
// ascending index order — the book's global lock order, which every
// multi-shard path follows, so overlapping spans cannot deadlock.
//
//reschedvet:lockorder
//reschedvet:acquires bookShard.mu
func (b *Book) lockShards(lo, hi int) {
	for i := lo; i <= hi; i++ {
		b.shards[i].mu.Lock()
	}
}

// unlockShards releases what lockShards acquired.
//
//reschedvet:lockorder
//reschedvet:releases bookShard.mu
func (b *Book) unlockShards(lo, hi int) {
	for i := hi; i >= lo; i-- {
		b.shards[i].mu.Unlock()
	}
}

// Snapshot returns a consistent view of the current schedule with the
// stamps it was read at. The view is independent: the caller may
// mutate it freely (and scheduling algorithms do). On the persistent
// backend taking it is O(#shards) — one root pointer + stamp per shard
// under RLock — and the frozen roots keep answering queries unchanged
// while later commits path-copy new roots beside them.
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
// has the sweep): the segments are materialized into dst and Avail is
// dst. Larger schedules skip
// dst entirely — Avail is a copy-on-write handle over the shard roots
// and the snapshot allocates O(#shards) regardless of R.
//
// Shards are read one at a time in ascending order, so a multi-shard
// snapshot is not a point-in-time cut of the whole horizon; it does
// not need to be, because Commit revalidates the stamp of every shard
// it writes. A commit computed on a torn snapshot either touches only
// shards whose windows were read consistently (and proceeds safely)
// or fails with ErrStale.
func (b *Book) SnapshotInto(dst *profile.Profile) Snapshot {
	snap := Snapshot{Epochs: make([]uint64, len(b.shards))}
	if !b.persistent {
		snap.Avail = dst
		if len(b.shards) == 1 {
			sh := &b.shards[0]
			sh.mu.RLock()
			snap.Version = b.version.Load()
			snap.Epochs[0] = sh.stamp
			sh.prof.CloneInto(dst)
			sh.mu.RUnlock()
			return snap
		}
		dst.Reset(b.capacity, b.origin)
		for i := range b.shards {
			sh := &b.shards[i]
			sh.mu.RLock()
			if i == 0 {
				snap.Version = b.version.Load()
			}
			snap.Epochs[i] = sh.stamp
			dst.AppendWindow(sh.prof, sh.start, sh.end)
			sh.mu.RUnlock()
		}
		return snap
	}
	parts := make([]*profile.PersistentProfile, len(b.shards))
	total := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		if i == 0 {
			snap.Version = b.version.Load()
		}
		snap.Epochs[i] = sh.stamp
		// Clone ends the shard's open edit — one atomic word, the only
		// thing a snapshot writes — so no later commit writes a node
		// this snapshot pins.
		parts[i] = sh.pprof.Clone()
		sh.mu.RUnlock()
		total += parts[i].NumSegments()
	}
	if total < profile.AutoTreeThreshold {
		// Small R: materialize the handful of segments into the pooled
		// flat profile, whose scans beat tree descents at this size.
		dst.Reset(b.capacity, b.origin)
		for _, p := range parts {
			p.AppendSegmentsTo(dst)
		}
		snap.Avail = dst
		return snap
	}
	if len(parts) == 1 {
		snap.Avail = parts[0]
		return snap
	}
	snap.Avail = profile.ConcatPersistent(parts)
	return snap
}

// reserveChecks validates a reservation request against the book's
// horizon before any shard is locked, with the same messages the
// profile's own checks produce. Capacity conflicts are detected later,
// inside the clipped per-shard reserves.
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

// shardReserveLocked books a clipped piece into shard i on whichever
// profile backend the book runs; the shard's lock must be held. On the
// persistent backend the mutation writes O(log n) nodes — copies of
// those a snapshot handle may share, which stay untouched — and swaps
// the shard's root.
//
//reschedvet:holds bookShard.mu
func (b *Book) shardReserveLocked(i int, start, end model.Time, procs int) error {
	sh := &b.shards[i]
	if sh.pprof != nil {
		return sh.pprof.Reserve(start, end, procs)
	}
	return sh.prof.Reserve(start, end, procs)
}

// shardUnreserveLocked undoes a clipped piece in shard i; the shard's
// lock must be held.
//
//reschedvet:holds bookShard.mu
func (b *Book) shardUnreserveLocked(i int, start, end model.Time, procs int) error {
	sh := &b.shards[i]
	if sh.pprof != nil {
		return sh.pprof.Unreserve(start, end, procs)
	}
	return sh.prof.Unreserve(start, end, procs)
}

// appliedPiece records one clipped per-shard reserve for rollback.
type appliedPiece struct {
	shard      int
	start, end model.Time
	procs      int
}

// applyLocked reserves req into every shard its window overlaps,
// clipped to the shard windows, appending the applied pieces to
// applied (for the caller's rollback). The touched shards' locks must
// be held. On failure the pieces applied for THIS request are already
// rolled back; previously applied requests are the caller's to undo.
//
//reschedvet:holds bookShard.mu
func (b *Book) applyLocked(req Request, applied []appliedPiece) ([]appliedPiece, error) {
	first := len(applied)
	lo, hi := b.shardSpan(req.Start, req.End)
	for i := lo; i <= hi; i++ {
		sh := &b.shards[i]
		start, end := req.Start, req.End
		if start < sh.start {
			start = sh.start
		}
		if end > sh.end {
			end = sh.end
		}
		if end <= start {
			continue
		}
		if err := b.shardReserveLocked(i, start, end, req.Procs); err != nil {
			b.rollbackLocked(applied[first:])
			// Truncate the already-undone pieces, or the caller's own
			// rollback of earlier requests would unreserve them twice.
			return applied[:first], err
		}
		applied = append(applied, appliedPiece{shard: i, start: start, end: end, procs: req.Procs})
	}
	return applied, nil
}

// rollbackLocked undoes applied pieces; the shards' locks must be
// held. A failure to undo a reserve we just made is an invariant
// violation.
//
//reschedvet:holds bookShard.mu
func (b *Book) rollbackLocked(applied []appliedPiece) {
	for k := len(applied) - 1; k >= 0; k-- {
		p := applied[k]
		if err := b.shardUnreserveLocked(p.shard, p.start, p.end, p.procs); err != nil {
			panic(fmt.Sprintf("resbook: rollback failed: %v", err))
		}
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

// newRowLocked files the ledger row for a booked request in the shard
// owning its start, and indexes it as Pending there; the shard's lock
// must be held.
//
//reschedvet:holds bookShard.mu
func (b *Book) newRowLocked(req Request) *Reservation {
	r := &Reservation{
		ID:     reservationID(b.nextID.Add(1)),
		Start:  req.Start,
		End:    req.End,
		Procs:  req.Procs,
		Status: Pending,
	}
	sh := &b.shards[b.shardFor(req.Start)]
	sh.res[r.ID] = r
	sh.pushPendingLocked(r)
	return r
}

// bumpLocked marks shards[lo..hi] mutated and advances the global
// version; the shards' locks must be held.
//
//reschedvet:holds bookShard.mu
func (b *Book) bumpLocked(lo, hi int) {
	for i := lo; i <= hi; i++ {
		b.shards[i].stamp++
	}
	b.version.Add(1)
}

// Reserve books a single Pending reservation at the current version.
// Unlike Commit it needs no snapshot: the capacity check happens under
// the shard locks, so it fails only if the processors genuinely are
// not free.
func (b *Book) Reserve(start, end model.Time, procs int) (Reservation, error) {
	if err := b.reserveChecks(start, end, procs); err != nil {
		return Reservation{}, err
	}
	lo, hi := b.shardSpan(start, end)
	b.lockShards(lo, hi)
	defer b.unlockShards(lo, hi)
	req := Request{Start: start, End: end, Procs: procs}
	if _, err := b.applyLocked(req, nil); err != nil {
		return Reservation{}, err
	}
	r := b.newRowLocked(req)
	b.bumpLocked(lo, hi)
	return *r, nil
}

// Commit atomically books all requests, provided every shard the
// requests touch is still at the stamp the snapshot recorded. On a
// stamp mismatch it returns ErrStale (wrapped) and books nothing; the
// caller should take a fresh Snapshot, recompute, and retry. On any
// other error (e.g. a request that does not fit the profile it was
// computed from, which indicates a caller bug) it also books nothing.
// Committing no requests validates every shard — the global fence the
// single-lock book provided.
func (b *Book) Commit(snap Snapshot, reqs []Request) ([]Reservation, error) {
	for i, req := range reqs {
		if err := b.reserveChecks(req.Start, req.End, req.Procs); err != nil {
			return nil, fmt.Errorf("resbook: request %d: %w", i, err)
		}
	}
	lo, hi := 0, len(b.shards)-1
	if len(reqs) > 0 {
		lo, hi = len(b.shards), -1
		for _, req := range reqs {
			l, h := b.shardSpan(req.Start, req.End)
			if l < lo {
				lo = l
			}
			if h > hi {
				hi = h
			}
		}
	}
	b.lockShards(lo, hi)
	defer b.unlockShards(lo, hi)
	if len(snap.Epochs) != len(b.shards) {
		return nil, fmt.Errorf("%w: snapshot of %d shards, book has %d", ErrStale, len(snap.Epochs), len(b.shards))
	}
	for i := lo; i <= hi; i++ {
		if b.shards[i].stamp != snap.Epochs[i] {
			return nil, fmt.Errorf("%w: computed at version %d, book at %d", ErrStale, snap.Version, b.version.Load())
		}
	}
	// Room for one piece per request and one crossing of each locked
	// boundary; append grows it when more requests straddle shards.
	applied := make([]appliedPiece, 0, len(reqs)+hi-lo)
	for i, req := range reqs {
		var err error
		applied, err = b.applyLocked(req, applied)
		if err != nil {
			b.rollbackLocked(applied)
			return nil, fmt.Errorf("resbook: request %d: %w", i, err)
		}
	}
	out := make([]Reservation, 0, len(reqs))
	for _, req := range reqs {
		out = append(out, *b.newRowLocked(req))
	}
	b.bumpLocked(lo, hi)
	return out, nil
}

// Get returns a copy of the reservation with the given ID.
func (b *Book) Get(id string) (Reservation, bool) {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		r, ok := sh.res[id]
		if ok {
			out := *r
			sh.mu.RUnlock()
			return out, true
		}
		sh.mu.RUnlock()
	}
	return Reservation{}, false
}

// List returns copies of all reservations (including released ones),
// in the order they were booked.
func (b *Book) List() []Reservation {
	var out []Reservation
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for _, r := range sh.res {
			out = append(out, *r)
		}
		sh.mu.RUnlock()
	}
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
// reads the top of each shard's Pending index — O(#shards), however
// many rows the ledger holds.
func (b *Book) EarliestPendingActivation(after model.Time) (at model.Time, ok bool) {
	at = model.Infinity
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		if len(sh.pending) > 0 {
			at, ok = min(at, sh.pending[0].Start), true
		}
		sh.mu.RUnlock()
	}
	if !ok {
		return 0, false
	}
	return max(at, after), true
}

// Activate confirms a Pending reservation. Activating an Active
// reservation is a no-op; a Released one is an error.
func (b *Book) Activate(id string) error {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		r, ok := sh.res[id]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		if r.Status == Released {
			sh.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrReleased, id)
		}
		if r.Status == Pending {
			r.Status = Active
			sh.settlePendingLocked()
			sh.stamp++
			b.version.Add(1)
		}
		sh.mu.Unlock()
		return nil
	}
	return fmt.Errorf("%w: %s", ErrNotFound, id)
}

// Release cancels a Pending or Active reservation, returning its
// processors to the profile. Releasing twice is an error.
func (b *Book) Release(id string) error {
	// Find the row's window first (rows never change theirs), then take
	// the shard locks the release touches and re-check the status under
	// them.
	r, ok := b.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	lo, hi := b.shardSpan(r.Start, r.End)
	home := b.shardFor(r.Start)
	b.lockShards(lo, hi)
	defer b.unlockShards(lo, hi)
	row, ok := b.shards[home].res[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if row.Status == Released {
		return fmt.Errorf("%w: %s", ErrReleased, id)
	}
	for i := lo; i <= hi; i++ {
		sh := &b.shards[i]
		start, end := row.Start, row.End
		if start < sh.start {
			start = sh.start
		}
		if end > sh.end {
			end = sh.end
		}
		if end <= start {
			continue
		}
		if err := b.shardUnreserveLocked(i, start, end, row.Procs); err != nil {
			// The shard profiles hold every non-released reservation, so
			// undoing one can only fail if the ledger and profile disagree.
			panic(fmt.Sprintf("resbook: release %s failed: %v", id, err))
		}
	}
	row.Status = Released
	b.shards[home].settlePendingLocked()
	b.bumpLocked(lo, hi)
	return nil
}

// Transact runs the optimistic-concurrency loop: snapshot, compute,
// commit, retrying on ErrStale up to maxAttempts times. fn receives a
// private snapshot and returns the reservation requests to commit
// (returning an empty slice commits nothing but still validates the
// snapshot). The snapshot is fn's only for the duration of the call:
// snap.Avail may be a flat buffer the book recycles for the next
// attempt and the next Transact, so fn may mutate it freely but must
// not keep it, or anything aliasing it, once it returns (callers that
// need a view to keep take their own Snapshot). It reports the booked
// reservations and how many version-conflict retries occurred. Any
// error from fn, from ctx, or a non-stale commit failure aborts the
// loop.
func (b *Book) Transact(ctx context.Context, maxAttempts int, fn func(Snapshot) ([]Request, error)) ([]Reservation, int, error) {
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
		out, err := b.Commit(snap, reqs)
		if err == nil {
			return out, retries, nil
		}
		if !errors.Is(err, ErrStale) {
			return nil, retries, err
		}
		retries++
	}
	return nil, retries, fmt.Errorf("%w: gave up after %d attempts", ErrStale, maxAttempts)
}

// checkPendingLocked audits the shard's Pending index against its
// ledger: the top is Pending or the heap is empty, heap order holds,
// every entry is a row of this shard filed once, and every Pending row
// is among them. The shard's lock must be held.
//
//reschedvet:holds mu
func (sh *bookShard) checkPendingLocked() error {
	h := sh.pending
	if len(h) > 0 && h[0].Status != Pending {
		return fmt.Errorf("pending index: top %s is %v", h[0].ID, h[0].Status)
	}
	indexed := make(map[*Reservation]bool, len(h))
	for i, r := range h {
		if parent := h[(i-1)/2]; parent.Start > r.Start {
			return fmt.Errorf("pending index: %s (start %d) sits above %s (start %d)", parent.ID, parent.Start, r.ID, r.Start)
		}
		if sh.res[r.ID] != r {
			return fmt.Errorf("pending index: entry %s is not a row of this shard", r.ID)
		}
		if indexed[r] {
			return fmt.Errorf("pending index: row %s indexed twice", r.ID)
		}
		indexed[r] = true
	}
	for _, r := range sh.res {
		if r.Status == Pending && !indexed[r] {
			return fmt.Errorf("pending index: Pending row %s is missing", r.ID)
		}
	}
	return nil
}

// CheckInvariants validates the book: every shard's Pending index
// agrees with its ledger, every shard profile satisfies its
// representation invariants, and replaying the ledger's non-released
// reservations onto an empty profile reproduces the assembled global
// profile exactly (no lost and no double-booked capacity).
func (b *Book) CheckInvariants() error {
	lo, hi := 0, len(b.shards)-1
	b.lockShards(lo, hi)
	defer b.unlockShards(lo, hi)
	for i := range b.shards {
		if err := b.shards[i].checkPendingLocked(); err != nil {
			return fmt.Errorf("resbook: shard %d: %w", i, err)
		}
	}
	assembled := &profile.Profile{}
	assembled.Reset(b.capacity, b.origin)
	for i := range b.shards {
		sh := &b.shards[i]
		if sh.pprof != nil {
			if err := sh.pprof.Check(); err != nil {
				return fmt.Errorf("resbook: shard %d: %w", i, err)
			}
			sh.pprof.AppendSegmentsTo(assembled)
		} else {
			if err := sh.prof.Check(); err != nil {
				return fmt.Errorf("resbook: shard %d: %w", i, err)
			}
			assembled.AppendWindow(sh.prof, sh.start, sh.end)
		}
	}
	want := profile.New(b.capacity, b.origin)
	for i := range b.shards {
		for _, r := range b.shards[i].res {
			if r.Status == Released {
				continue
			}
			if err := want.Reserve(r.Start, r.End, r.Procs); err != nil {
				return fmt.Errorf("resbook: ledger replay of %s: %w", r.ID, err)
			}
		}
	}
	if want.String() != assembled.String() {
		return fmt.Errorf("resbook: ledger %s != profile %s", want, assembled)
	}
	return nil
}
