package profile

// This file defines the Intervals interface: the query/mutation
// surface shared by the two availability-profile backends. The flat
// Profile (profile.go) stores the step function as parallel arrays
// and answers queries with linear scans — simple, cache-friendly, and
// the differential-test oracle. PersistentProfile (persistent.go)
// indexes the same step function with a copy-on-write treap and
// answers the same queries in O(log n) per probe; Clone is O(1), which
// is why the reservation book's shards and every snapshot of a large
// book are persistent handles. Callers (internal/cpa, internal/core,
// internal/server) are written against Intervals and never pick a
// backend; CopyIntervals keeps whichever backend it is handed.

import "resched/internal/model"

// Intervals is the availability-profile abstraction: a step function
// of free processors over [origin, +inf) supporting feasibility
// probes and reservation mutations. *Profile and *PersistentProfile
// implement it with bit-identical results — same answers, same error
// strings, same panics — enforced by the differential tests and
// FuzzPersistentVsFlat; scheduling code written against Intervals runs
// unchanged on either.
type Intervals interface {
	Capacity() int
	Origin() model.Time
	NumSegments() int

	FreeAt(t model.Time) int
	ReservedAt(t model.Time) int
	MinFree(start, end model.Time) int
	AvgFree(start, end model.Time) float64
	EarliestFit(procs int, dur model.Duration, notBefore model.Time) model.Time
	LatestFit(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool)
	EarliestFits(reqs []FitRequest, notBefore model.Time, out []model.Time) []model.Time
	LatestFits(reqs []FitRequest, notBefore, finishBy model.Time, out []model.Time, ok []bool) ([]model.Time, []bool)
	// LatestFitMax answers "which request starts latest?" for an
	// allocation ladder (Procs strictly increasing, Dur strictly
	// decreasing): the index, start and feasibility of the best of
	// LatestFits' answers, ties to the lowest index.
	LatestFitMax(reqs []FitRequest, notBefore, finishBy model.Time) (k int, start model.Time, ok bool)

	// Checked variants: validated entry points for serving code; see
	// validate.go for the contract (including ErrBeforeOrigin).
	EarliestFitChecked(procs int, dur model.Duration, notBefore model.Time) (model.Time, error)
	LatestFitChecked(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool, error)
	MinFreeChecked(start, end model.Time) (int, error)
	AvgFreeChecked(start, end model.Time) (float64, error)

	Reserve(start, end model.Time, procs int) error
	Unreserve(start, end model.Time, procs int) error

	Segments() []Segment
	Check() error
	String() string

	// Flat returns an independent flat-backend copy of the step
	// function, for callers that need the concrete array
	// representation (rendering, simulation injection).
	Flat() *Profile
	// CloneIntervals returns an independent copy on the same backend.
	CloneIntervals() Intervals
}

// Compile-time checks that every backend satisfies the interface.
var (
	_ Intervals = (*Profile)(nil)
	_ Intervals = (*PersistentProfile)(nil)
)

// Flat implements Intervals for the flat backend: it is Clone.
func (p *Profile) Flat() *Profile { return p.Clone() }

// CloneIntervals implements Intervals for the flat backend.
func (p *Profile) CloneIntervals() Intervals { return p.Clone() }

// AutoTreeThreshold is the segment count below which the reservation
// book's SnapshotInto materializes a persistent snapshot into a flat
// profile rather than sharing the shard roots. Materializing costs
// O(n) once, after which each flat probe is cheaper than a tree probe
// at these sizes, so where the cut belongs depends on how many probes
// a snapshot answers; BenchmarkSnapshotArms sweeps both arms across it
// (DESIGN §17).
const AutoTreeThreshold = 128

// CopyIntervals copies src into a working copy on src's backend,
// reusing scratch's storage when scratch already holds that backend.
// It is CloneInto generalized over Intervals: the schedulers' per-call
// working profile stays allocation-free across calls on the flat
// backend, and a persistent source shares its root.
func CopyIntervals(src Intervals, scratch Intervals) Intervals {
	switch s := src.(type) {
	case *Profile:
		dst, ok := scratch.(*Profile)
		if !ok || dst == nil {
			dst = &Profile{}
		}
		s.CloneInto(dst)
		return dst
	case *PersistentProfile:
		// Persistent handles copy in O(1) by sharing the root, which
		// the Clone freezes; scratch reuse buys nothing.
		return s.Clone()
	default:
		return src.CloneIntervals()
	}
}
