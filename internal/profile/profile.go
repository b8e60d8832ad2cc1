// Package profile implements the processor-availability profile that
// represents a reservation schedule (the paper's Section 3.2): a step
// function over time giving the number of free processors on a
// homogeneous cluster. All scheduling algorithms interact with the
// reservation system exclusively through this type — finding the
// earliest or latest feasible start for an m-processor, d-second
// reservation, and committing reservations.
//
// Queries are linear scans over the breakpoints, matching the O(R)
// per-task cost assumed by the paper's complexity analysis (Section 6).
package profile

import (
	"fmt"
	"slices"
	"sort"

	"resched/internal/model"
)

// Reservation is one advance reservation: Procs processors held during
// [Start, End). End is exclusive.
type Reservation struct {
	Start model.Time
	End   model.Time
	Procs int
}

// Duration returns End - Start.
func (r Reservation) Duration() model.Duration { return r.End - r.Start }

// Profile is a step function of free processors over [origin, +inf).
// The zero value is not usable; construct with New or FromReservations.
//
// Invariants (checked by (*Profile).check and the package tests):
// times is strictly increasing; free values are within [0, capacity];
// adjacent segments have different free values (the representation is
// coalesced); the final segment extends to model.Infinity.
type Profile struct {
	capacity int
	times    []model.Time // times[i] is the start of segment i
	free     []int        // free[i] processors during [times[i], times[i+1])

	// Scratch areas for the batch fit queries, reused across calls so
	// the scheduling inner loops allocate nothing. They are working
	// state, not part of the profile's value: Clone and CloneInto do
	// not carry them over. A Profile is not safe for concurrent use,
	// with or without these.
	fitActive []int32
	fitRunEnd []model.Time
}

// New returns a profile for a cluster with the given capacity, fully
// free from origin onward.
func New(capacity int, origin model.Time) *Profile {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	return &Profile{
		capacity: capacity,
		times:    []model.Time{origin},
		free:     []int{capacity},
	}
}

// FromReservations builds a profile from origin with the given
// competing reservations already committed. Reservations (or parts of
// them) before origin are clipped; reservations that would exceed the
// cluster capacity yield an error.
func FromReservations(capacity int, origin model.Time, rs []Reservation) (*Profile, error) {
	p := New(capacity, origin)
	for i, r := range rs {
		start, end := r.Start, r.End
		if start < origin {
			start = origin
		}
		if end <= start {
			continue // entirely in the past (or empty)
		}
		if err := p.Reserve(start, end, r.Procs); err != nil {
			return nil, fmt.Errorf("profile: reservation %d (%d procs, [%d,%d)): %w", i, r.Procs, r.Start, r.End, err)
		}
	}
	return p, nil
}

// Capacity returns the total number of processors.
func (p *Profile) Capacity() int { return p.capacity }

// Origin returns the start of the profile's horizon.
func (p *Profile) Origin() model.Time { return p.times[0] }

// NumSegments returns the number of constant-availability segments.
func (p *Profile) NumSegments() int { return len(p.times) }

// Clone returns an independent copy of the profile. Scheduling
// algorithms clone the competing-reservation profile before committing
// their own task reservations.
func (p *Profile) Clone() *Profile {
	return &Profile{
		capacity: p.capacity,
		times:    append([]model.Time(nil), p.times...),
		free:     append([]int(nil), p.free...),
	}
}

// CloneInto overwrites dst with a copy of p, reusing dst's backing
// arrays when they are large enough. dst may be a previously used
// profile of any capacity or a zero &Profile{}; afterwards it is fully
// independent of p. This is the allocation-free path the serving layer
// uses with its pooled scratch profiles, where Clone would copy the
// whole step function into fresh arrays on every request.
func (p *Profile) CloneInto(dst *Profile) {
	dst.capacity = p.capacity
	dst.times = append(dst.times[:0], p.times...)
	dst.free = append(dst.free[:0], p.free...)
}

// segEnd returns the exclusive end of segment i.
func (p *Profile) segEnd(i int) model.Time {
	if i+1 < len(p.times) {
		return p.times[i+1]
	}
	return model.Infinity
}

// segAt returns the index of the segment containing time t. t must be
// >= the origin.
func (p *Profile) segAt(t model.Time) int {
	if t < p.times[0] {
		panic(fmt.Sprintf("profile: time %d before origin %d", t, p.times[0]))
	}
	// First index with times[i] > t, minus one.
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	return i
}

// FreeAt returns the number of free processors at time t. Times before
// the origin report the origin's availability.
func (p *Profile) FreeAt(t model.Time) int {
	if t < p.times[0] {
		t = p.times[0]
	}
	return p.free[p.segAt(t)]
}

// ReservedAt returns capacity - FreeAt(t).
func (p *Profile) ReservedAt(t model.Time) int { return p.capacity - p.FreeAt(t) }

// MinFree returns the minimum number of free processors over [start,
// end). It panics if end <= start.
func (p *Profile) MinFree(start, end model.Time) int {
	if end <= start {
		panic(fmt.Sprintf("profile: MinFree over empty interval [%d,%d)", start, end))
	}
	if start < p.times[0] {
		start = p.times[0]
	}
	min := p.capacity
	for i := p.segAt(start); i < len(p.times) && p.times[i] < end; i++ {
		if p.free[i] < min {
			min = p.free[i]
			if min == 0 {
				return 0 // the running minimum cannot recover
			}
		}
	}
	return min
}

// AvgFree returns the time-weighted average number of free processors
// over [start, end).
func (p *Profile) AvgFree(start, end model.Time) float64 {
	if end <= start {
		panic(fmt.Sprintf("profile: AvgFree over empty interval [%d,%d)", start, end))
	}
	if start < p.times[0] {
		start = p.times[0]
	}
	if end <= start {
		return float64(p.capacity)
	}
	var acc float64
	for i := p.segAt(start); i < len(p.times) && p.times[i] < end; i++ {
		lo := p.times[i]
		if lo < start {
			lo = start
		}
		hi := p.segEnd(i)
		if hi > end {
			hi = end
		}
		acc += float64(p.free[i]) * float64(hi-lo)
	}
	return acc / float64(end-start)
}

// ensureBreak inserts a breakpoint at time t (>= times[lo]) and
// returns the index of the segment starting at t. If a breakpoint
// already exists at t, it is reused. The search covers times[lo:]
// only: Reserve and Unreserve pass the start's index when they look up
// the end, which lies at or after it.
func (p *Profile) ensureBreak(t model.Time, lo int) int {
	k, found := slices.BinarySearch(p.times[lo:], t)
	i := lo + k
	if found {
		return i
	}
	p.times = slices.Insert(p.times, i, t)
	p.free = slices.Insert(p.free, i, p.free[i-1])
	return i
}

// coalesceBoundary merges segment k into segment k-1 when they have
// equal availability. Reserve and Unreserve shift every segment in the
// touched range [i, j) by the same amount, so segments inside the
// range that were distinct stay distinct: only the two boundaries of
// the range can newly merge, and a full coalescing sweep (the naive
// referenceReserve keeps one) is unnecessary.
func (p *Profile) coalesceBoundary(k int) {
	if k <= 0 || k >= len(p.times) || p.free[k] != p.free[k-1] {
		return
	}
	p.times = append(p.times[:k], p.times[k+1:]...)
	p.free = append(p.free[:k], p.free[k+1:]...)
}

// reserveChecks validates a Reserve call without modifying the
// profile. Shared with referenceReserve so the optimized and naive
// mutators accept and reject exactly the same calls.
func (p *Profile) reserveChecks(start, end model.Time, procs int) error {
	if procs < 1 || procs > p.capacity {
		return fmt.Errorf("cannot reserve %d processors on a %d-processor cluster", procs, p.capacity)
	}
	if start < p.times[0] {
		return fmt.Errorf("reservation start %d before profile origin %d", start, p.times[0])
	}
	if end <= start {
		return fmt.Errorf("reservation interval [%d,%d) is empty", start, end)
	}
	if end >= model.Infinity {
		return fmt.Errorf("reservation end %d beyond the scheduling horizon", end)
	}
	if m := p.MinFree(start, end); m < procs {
		return fmt.Errorf("only %d of %d requested processors free during [%d,%d)", m, procs, start, end)
	}
	return nil
}

// unreserveChecks validates an Unreserve call without modifying the
// profile; see reserveChecks.
func (p *Profile) unreserveChecks(start, end model.Time, procs int) error {
	if procs < 1 || procs > p.capacity {
		return fmt.Errorf("cannot release %d processors on a %d-processor cluster", procs, p.capacity)
	}
	if start < p.times[0] {
		return fmt.Errorf("release start %d before profile origin %d", start, p.times[0])
	}
	if end <= start {
		return fmt.Errorf("release interval [%d,%d) is empty", start, end)
	}
	if end >= model.Infinity {
		return fmt.Errorf("release end %d beyond the scheduling horizon", end)
	}
	for i := p.segAt(start); i < len(p.times) && p.times[i] < end; i++ {
		if p.free[i]+procs > p.capacity {
			return fmt.Errorf("only %d of %d released processors reserved during [%d,%d)", p.capacity-p.free[i], procs, start, end)
		}
	}
	return nil
}

// Reserve commits a reservation of procs processors during [start,
// end). It fails without modifying the profile if the interval lies
// (partly) before the origin, if end <= start, if procs is outside
// [1, capacity], or if fewer than procs processors are free at any
// point of the interval.
func (p *Profile) Reserve(start, end model.Time, procs int) error {
	if err := p.reserveChecks(start, end, procs); err != nil {
		return err
	}
	i := p.ensureBreak(start, 0)
	j := p.ensureBreak(end, i)
	for k := i; k < j; k++ {
		p.free[k] -= procs
	}
	p.coalesceBoundary(j) // higher boundary first: removing it leaves i valid
	p.coalesceBoundary(i)
	return nil
}

// Unreserve returns procs processors to the profile during [start,
// end) — the inverse of Reserve, used when a reservation is released
// before (or after) it runs. It fails without modifying the profile if
// the interval is empty, lies (partly) outside the horizon, or if
// fewer than procs processors are reserved at any point of the
// interval (releasing capacity that was never booked would corrupt
// the schedule).
func (p *Profile) Unreserve(start, end model.Time, procs int) error {
	if err := p.unreserveChecks(start, end, procs); err != nil {
		return err
	}
	i := p.ensureBreak(start, 0)
	j := p.ensureBreak(end, i)
	for k := i; k < j; k++ {
		p.free[k] += procs
	}
	p.coalesceBoundary(j) // higher boundary first: removing it leaves i valid
	p.coalesceBoundary(i)
	return nil
}

// EarliestFit returns the earliest start time s >= notBefore such that
// procs processors are free during [s, s+dur). Because the profile's
// final segment is fully free, a fit always exists for procs <=
// capacity; the method panics on procs outside [1, capacity] or
// negative dur (programming errors). A zero dur returns
// max(notBefore, origin).
func (p *Profile) EarliestFit(procs int, dur model.Duration, notBefore model.Time) model.Time {
	if procs < 1 || procs > p.capacity {
		panic(fmt.Sprintf("profile: EarliestFit for %d processors on a %d-processor cluster", procs, p.capacity))
	}
	if dur < 0 {
		panic(fmt.Sprintf("profile: negative duration %d", dur))
	}
	s := notBefore
	if s < p.times[0] {
		s = p.times[0]
	}
	if dur == 0 {
		return s
	}
	for i := p.segAt(s); i < len(p.times); i++ {
		if i == len(p.times)-1 {
			// Horizon segment: it extends to infinity, so any remaining
			// duration fits. Handled explicitly rather than through the
			// segEnd comparison below because s+dur may exceed the
			// model.Infinity sentinel for very late starts or very long
			// durations, which used to make the search fall off the end.
			if p.free[i] < procs {
				panic("profile: horizon segment not fully free")
			}
			return s
		}
		if p.free[i] < procs {
			s = p.segEnd(i) // earliest possible start moves past this segment
			continue
		}
		// s never trails the run's first feasible segment: it starts
		// inside segAt(s) and each infeasible segment advances it to
		// the following breakpoint.
		if p.segEnd(i) >= s+dur {
			return s
		}
		// Segment fits partially; the run continues into the next
		// segment with the same candidate start.
	}
	// Unreachable: the loop always returns from the horizon segment.
	panic("profile: EarliestFit fell off the horizon")
}

// LatestFit returns the latest start time s such that s >= notBefore,
// s+dur <= finishBy, and procs processors are free during [s, s+dur).
// The boolean reports whether any such start exists. A zero dur
// returns finishBy when the window is non-empty.
func (p *Profile) LatestFit(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool) {
	if procs < 1 || procs > p.capacity {
		panic(fmt.Sprintf("profile: LatestFit for %d processors on a %d-processor cluster", procs, p.capacity))
	}
	if dur < 0 {
		panic(fmt.Sprintf("profile: negative duration %d", dur))
	}
	lo := notBefore
	if lo < p.times[0] {
		lo = p.times[0]
	}
	if finishBy-dur < lo {
		return 0, false
	}
	if dur == 0 {
		return finishBy, true
	}
	// Walk maximal runs of segments with free >= procs, latest first.
	// Segments entirely above the deadline never resolve a start: a
	// run up there has runStart > finishBy >= runEnd - dur, and a run
	// spanning the deadline gets runEnd clipped to finishBy whether
	// the walk enters it from above or at the deadline segment. So
	// jump straight to the segment containing finishBy. Segments that
	// end at or below lo cannot hold a start either (dur > 0), so the
	// walk stops there: after a run clipped to lo fails, nothing lower
	// can succeed.
	i := p.segAt(finishBy)
	for i >= 0 && p.segEnd(i) > lo {
		if p.free[i] < procs {
			i--
			continue
		}
		j := i
		for j >= 0 && p.free[j] >= procs {
			j--
		}
		runStart, runEnd := p.times[j+1], p.segEnd(i)
		if runStart < lo {
			runStart = lo
		}
		if runEnd > finishBy {
			runEnd = finishBy
		}
		if runEnd-dur >= runStart {
			return runEnd - dur, true
		}
		i = j
	}
	return 0, false
}

// FitRequest is one (processors, duration) probe of a batch fit query.
// The scheduling algorithms build one request per candidate allocation
// of the task at hand.
type FitRequest struct {
	Procs int
	Dur   model.Duration
}

// EarliestFits answers EarliestFit for every request in a single
// left-to-right sweep of the profile. The candidate scan of the
// scheduling inner loop probes the same profile from the same ready
// time once per candidate allocation; the solo method restarts
// sort.Search plus a linear segment walk for each probe, while the
// batch advances all candidate starts together over one pass of the
// step function. Results are probe-for-probe identical to calling
// EarliestFit(reqs[j].Procs, reqs[j].Dur, notBefore) for each j —
// the differential tests enforce this.
//
// The returned slice is out (grown if needed) with out[j] holding
// request j's earliest start; pass a reused buffer to avoid
// allocation.
func (p *Profile) EarliestFits(reqs []FitRequest, notBefore model.Time, out []model.Time) []model.Time {
	if cap(out) < len(reqs) {
		out = make([]model.Time, len(reqs))
	}
	out = out[:len(reqs)]
	s0 := notBefore
	if s0 < p.times[0] {
		s0 = p.times[0]
	}
	if cap(p.fitActive) < len(reqs) {
		p.fitActive = make([]int32, 0, len(reqs))
	}
	active := p.fitActive[:0]
	for j, r := range reqs {
		if r.Procs < 1 || r.Procs > p.capacity {
			panic(fmt.Sprintf("profile: EarliestFits for %d processors on a %d-processor cluster", r.Procs, p.capacity))
		}
		if r.Dur < 0 {
			panic(fmt.Sprintf("profile: negative duration %d", r.Dur))
		}
		out[j] = s0 // candidate start; final once the request resolves
		if r.Dur > 0 {
			active = append(active, int32(j))
		}
	}
	last := len(p.times) - 1
	for i := p.segAt(s0); len(active) > 0 && i < last; i++ {
		end := p.times[i+1]
		f := p.free[i]
		w := 0
		for _, j := range active {
			r := &reqs[j]
			if f < r.Procs {
				// Blocked: the earliest possible start moves past this
				// segment, exactly as in the solo scan.
				out[j] = end
				active[w] = j
				w++
			} else if end < out[j]+r.Dur {
				// Fits only partially; the run continues into the next
				// segment with the same candidate start.
				active[w] = j
				w++
			}
			// Otherwise resolved at out[j].
		}
		active = active[:w]
	}
	// Horizon segment: it extends to infinity, so every request still
	// active resolves at its current candidate start.
	for _, j := range active {
		if p.free[last] < reqs[j].Procs {
			panic("profile: horizon segment not fully free")
		}
	}
	p.fitActive = active[:0]
	return out
}

// LatestFits answers LatestFit for every request in a single
// right-to-left sweep of the profile, walking each request's maximal
// feasible runs latest-first exactly as the solo method does. Results
// are probe-for-probe identical to calling LatestFit(reqs[j].Procs,
// reqs[j].Dur, notBefore, finishBy) for each j.
//
// The returned slices are out and ok (grown if needed): ok[j] reports
// whether request j has any feasible start, and out[j] holds the
// latest one when it does.
func (p *Profile) LatestFits(reqs []FitRequest, notBefore, finishBy model.Time, out []model.Time, ok []bool) ([]model.Time, []bool) {
	if cap(out) < len(reqs) {
		out = make([]model.Time, len(reqs))
	}
	out = out[:len(reqs)]
	if cap(ok) < len(reqs) {
		ok = make([]bool, len(reqs))
	}
	ok = ok[:len(reqs)]
	lo := notBefore
	if lo < p.times[0] {
		lo = p.times[0]
	}
	if cap(p.fitActive) < len(reqs) {
		p.fitActive = make([]int32, 0, len(reqs))
	}
	if cap(p.fitRunEnd) < len(reqs) {
		p.fitRunEnd = make([]model.Time, len(reqs))
	}
	active := p.fitActive[:0]
	runEnd := p.fitRunEnd[:len(reqs)]
	const noRun = model.Time(-1) << 62 // no feasible run open; below any clipped run end
	for j, r := range reqs {
		if r.Procs < 1 || r.Procs > p.capacity {
			panic(fmt.Sprintf("profile: LatestFits for %d processors on a %d-processor cluster", r.Procs, p.capacity))
		}
		if r.Dur < 0 {
			panic(fmt.Sprintf("profile: negative duration %d", r.Dur))
		}
		out[j], ok[j] = 0, false
		if finishBy-r.Dur < lo {
			continue // no window at all
		}
		if r.Dur == 0 {
			out[j], ok[j] = finishBy, true
			continue
		}
		runEnd[j] = noRun
		active = append(active, int32(j))
	}
	// As in the solo walk, segments entirely above the deadline are
	// irrelevant: the sweep starts at the segment containing finishBy.
	// (Any active request has finishBy > lo >= times[0], so segAt is
	// in range; with none active the sweep is skipped entirely.)
	i0 := -1
	if len(active) > 0 {
		i0 = p.segAt(finishBy)
	}
	for i := i0; len(active) > 0 && i >= 0; i-- {
		if p.segEnd(i) <= lo {
			// Entirely below the window: runs opened here could never
			// reach lo, and runs already open are settled by the flush.
			break
		}
		f := p.free[i]
		// A run known to extend down to this segment resolves once its
		// clipped end leaves room for the duration above floor.
		floor := p.times[i]
		if floor < lo {
			floor = lo
		}
		w := 0
		for _, j := range active {
			r := &reqs[j]
			if f >= r.Procs {
				if runEnd[j] == noRun {
					// A new maximal run opens; its end is clipped by the
					// deadline up front, as the solo walk does.
					e := p.segEnd(i)
					if e > finishBy {
						e = finishBy
					}
					runEnd[j] = e
				}
				if runEnd[j]-r.Dur >= floor {
					// The run start can only be at or below floor, so
					// this is already the latest feasible start.
					out[j], ok[j] = runEnd[j]-r.Dur, true
					continue
				}
				active[w] = j
				w++
				continue
			}
			// Segment infeasible: the run that was open (if any) starts
			// at this segment's end and is closed. Its start test needs
			// no repeat: max(segEnd(i), lo) is the floor it already
			// failed on segment i+1.
			runEnd[j] = noRun
			active[w] = j
			w++
		}
		active = active[:w]
	}
	// Requests still active are unresolvable: the last segment swept
	// had floor lo (it is segment 0, with times[0] <= lo, or the one
	// below it ends at or below lo), and every open run failed there.
	p.fitActive = active[:0]
	return out, ok
}

// checkLadder panics unless reqs is an allocation ladder on a
// capacity-processor cluster: every Procs in [1, capacity], every Dur
// non-negative, Procs strictly increasing and Dur strictly
// decreasing — the shape of a moldable task's candidate allocations.
func checkLadder(reqs []FitRequest, capacity int) {
	for j := 1; j < len(reqs); j++ {
		if reqs[j].Procs <= reqs[j-1].Procs || reqs[j].Dur >= reqs[j-1].Dur {
			panic(fmt.Sprintf("profile: LatestFitMax request %d (%d processors, %ds) does not extend the ladder (%d processors, %ds)",
				j, reqs[j].Procs, reqs[j].Dur, reqs[j-1].Procs, reqs[j-1].Dur))
		}
	}
	// On a ladder the end rungs bound every other.
	if n := len(reqs); n > 0 {
		for _, procs := range [2]int{reqs[0].Procs, reqs[n-1].Procs} {
			if procs < 1 || procs > capacity {
				panic(fmt.Sprintf("profile: LatestFitMax for %d processors on a %d-processor cluster", procs, capacity))
			}
		}
		if reqs[n-1].Dur < 0 {
			panic(fmt.Sprintf("profile: negative duration %d", reqs[n-1].Dur))
		}
	}
}

// LatestFitMax returns the request of the ladder reqs whose latest
// feasible start in [notBefore, finishBy] is latest, with ties going
// to the lowest index (the fewest processors); k is -1 when no request
// fits. reqs must be a ladder (see checkLadder): Procs strictly
// increasing, Dur strictly decreasing. The answer equals the best of
// LatestFits(reqs, notBefore, finishBy) — the differential tests
// enforce this — but the sweep keeps one staircase for the whole
// ladder instead of one run per request, and stops at the first
// segment where any request resolves.
//
// In-window requests (finishBy - Dur >= lo) form a suffix of the
// ladder. Sweeping right to left, the open run of request j ends where
// free last dropped below Procs_j; over the ladder those ends form a
// staircase. Level l holds request js[l] and run end es[l], shared by
// every request above the level below and up to js[l]; of those, js[l]
// has the shortest Dur, so it alone can hold the level's latest start.
// Levels are popped when free drops below their request and pushed
// when it rises past the next one. A request still unresolved after
// segment i starts, if at all, below max(times[i], lo), and every
// request resolving at i starts at or above it: the first segment with
// a resolution holds the maximum (DESIGN §18).
func (p *Profile) LatestFitMax(reqs []FitRequest, notBefore, finishBy model.Time) (int, model.Time, bool) {
	checkLadder(reqs, p.capacity)
	lo := notBefore
	if lo < p.times[0] {
		lo = p.times[0]
	}
	n := len(reqs)
	k0 := sort.Search(n, func(j int) bool { return finishBy-reqs[j].Dur >= lo })
	if k0 == n {
		return -1, 0, false
	}
	if reqs[n-1].Dur == 0 {
		// Only the last rung can be empty, and no other start reaches
		// finishBy.
		return n - 1, finishBy, true
	}
	js, es := p.fitActive[:0], p.fitRunEnd[:0]
	// The window is non-empty with Dur > 0, so finishBy > lo >= times[0].
	for i := p.segAt(finishBy); i >= 0 && p.segEnd(i) > lo; i-- {
		f := p.free[i]
		e, popped := model.Time(0), false
		for len(js) > 0 && reqs[js[len(js)-1]].Procs > f {
			e, popped = es[len(es)-1], true
			js, es = js[:len(js)-1], es[:len(es)-1]
		}
		next := k0 // the lowest request no level holds
		if len(js) > 0 {
			next = int(js[len(js)-1]) + 1
		}
		if next < n && reqs[next].Procs <= f {
			if !popped {
				// A run opens here, clipped by the deadline up front.
				// After a pop, the popped requests that still fit keep
				// the run end of the lowest popped level.
				e = p.segEnd(i)
				if e > finishBy {
					e = finishBy
				}
			}
			j := next + sort.Search(n-next, func(x int) bool { return reqs[next+x].Procs > f }) - 1
			js, es = append(js, int32(j)), append(es, e)
		}
		floor := p.times[i]
		if floor < lo {
			floor = lo
		}
		// Levels run bottom to top in increasing request index, so the
		// strict comparison keeps the lowest index on a tie.
		k, best := -1, model.Time(0)
		for l, j := range js {
			if s := es[l] - reqs[j].Dur; s >= floor && (k < 0 || s > best) {
				k, best = int(j), s
			}
		}
		if k >= 0 {
			p.fitActive, p.fitRunEnd = js[:0], es[:0]
			return k, best, true
		}
	}
	p.fitActive, p.fitRunEnd = js[:0], es[:0]
	return -1, 0, false
}

// Segment is one constant-availability step: Free processors from
// Start until the next segment's start (the last segment extends to
// model.Infinity).
type Segment struct {
	Start model.Time
	Free  int
}

// Segments returns the profile's step function as a list of segments,
// the exact representation (used by the HTTP API's profile view).
func (p *Profile) Segments() []Segment {
	out := make([]Segment, len(p.times))
	for i := range p.times {
		out[i] = Segment{Start: p.times[i], Free: p.free[i]}
	}
	return out
}

// Reservations returns the profile's busy intervals as a list of
// (start, end, reservedProcs) triples — the complement view of the
// free-processor step function. Fully-free segments are omitted.
func (p *Profile) Reservations() []Reservation {
	var out []Reservation
	for i := range p.times {
		if p.free[i] == p.capacity {
			continue
		}
		out = append(out, Reservation{Start: p.times[i], End: p.segEnd(i), Procs: p.capacity - p.free[i]})
	}
	return out
}

// Check verifies the representation invariants. The package tests call
// it after every mutation; long-lived holders of a profile (the
// reservation book behind reschedd) call it to validate their ledger
// against the live schedule.
func (p *Profile) Check() error { return p.check() }

// check verifies the representation invariants.
func (p *Profile) check() error {
	if len(p.times) == 0 || len(p.times) != len(p.free) {
		return fmt.Errorf("profile: %d times, %d free values", len(p.times), len(p.free))
	}
	for i := range p.times {
		if i > 0 && p.times[i] <= p.times[i-1] {
			return fmt.Errorf("profile: breakpoints not increasing at %d", i)
		}
		if i > 0 && p.free[i] == p.free[i-1] {
			return fmt.Errorf("profile: uncoalesced segments at %d", i)
		}
		if p.free[i] < 0 || p.free[i] > p.capacity {
			return fmt.Errorf("profile: free %d outside [0,%d]", p.free[i], p.capacity)
		}
	}
	if p.free[len(p.free)-1] != p.capacity {
		return fmt.Errorf("profile: final segment not fully free")
	}
	return nil
}

// String renders the profile compactly for debugging.
func (p *Profile) String() string {
	s := fmt.Sprintf("profile{cap %d:", p.capacity)
	for i := range p.times {
		s += fmt.Sprintf(" [%d:%d free]", p.times[i], p.free[i])
	}
	return s + "}"
}
