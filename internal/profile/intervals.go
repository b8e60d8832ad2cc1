package profile

// This file defines the Intervals interface: the query/mutation
// surface shared by the three availability-profile backends. The flat
// Profile (profile.go) stores the step function as parallel arrays
// and answers queries with linear scans — simple, cache-friendly, and
// the differential-test oracle. TreeProfile (segtree.go) indexes the
// same step function with a balanced tree in a mutable arena and
// answers the same queries in O(log n) per probe; it copies in O(n).
// PersistentProfile (persistent.go) is the same tree on heap nodes,
// copy-on-write: Clone is O(1), which is why the reservation book's
// shards and every snapshot of a large book are persistent handles.
// Auto and NewAuto pick between the first two by segment count so
// callers (internal/cpa, internal/core, internal/server) never
// hard-code the choice; CopyIntervals keeps whichever backend it is
// handed.

import "resched/internal/model"

// Intervals is the availability-profile abstraction: a step function
// of free processors over [origin, +inf) supporting feasibility
// probes and reservation mutations. *Profile, *TreeProfile and
// *PersistentProfile implement it with bit-identical results — same
// answers, same error strings, same panics — enforced by the
// differential tests, FuzzTreeProfileVsFlat and FuzzPersistentVsFlat;
// scheduling code written against Intervals runs unchanged on any of
// them.
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
	_ Intervals = (*TreeProfile)(nil)
	_ Intervals = (*PersistentProfile)(nil)
)

// Flat implements Intervals for the flat backend: it is Clone.
func (p *Profile) Flat() *Profile { return p.Clone() }

// CloneIntervals implements Intervals for the flat backend.
func (p *Profile) CloneIntervals() Intervals { return p.Clone() }

// AutoTreeThreshold is the segment count at or beyond which Auto and
// NewAuto pick the tree backend. Below it the flat linear scans win on
// constant factors; the crossover sits well under this on the
// EarliestFit scaling benchmarks, so the threshold is conservative.
const AutoTreeThreshold = 128

// Auto returns the backend suited to p's current size: p itself for
// small profiles, a TreeProfile built from p (an independent copy) for
// horizons of AutoTreeThreshold segments or more.
func Auto(p *Profile) Intervals {
	if p.NumSegments() >= AutoTreeThreshold {
		return NewTreeFromProfile(p)
	}
	return p
}

// NewAuto returns an empty profile on the backend suited to the
// expected number of segments: flat below AutoTreeThreshold, tree at
// or above it. Callers that know how many reservations they are about
// to commit (the CPA list scheduler books one per task) pass that as
// the hint.
func NewAuto(capacity int, origin model.Time, hint int) Intervals {
	if hint >= AutoTreeThreshold {
		return NewTree(capacity, origin)
	}
	return New(capacity, origin)
}

// CopyIntervals copies src into a working copy on src's backend,
// reusing scratch's storage when scratch already holds that backend.
// It is CloneInto generalized over Intervals: the schedulers' per-call
// working profile stays allocation-free across calls even when the
// serving layer switches backends per request.
func CopyIntervals(src Intervals, scratch Intervals) Intervals {
	switch s := src.(type) {
	case *Profile:
		dst, ok := scratch.(*Profile)
		if !ok || dst == nil {
			dst = &Profile{}
		}
		s.CloneInto(dst)
		return dst
	case *TreeProfile:
		dst, ok := scratch.(*TreeProfile)
		if !ok || dst == nil {
			dst = &TreeProfile{}
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
