package profile

import "resched/internal/model"

// This file retains the naive mutation path that Reserve and Unreserve
// replaced: a full coalescing sweep over every segment after each
// commit, instead of the two boundary merges that are the only merges
// a uniform shift of [start, end) can create. It is the oracle for the
// differential tests (differential_test.go), which require the
// optimized mutators to leave bit-identical step functions. It is not
// called on any serving path. The solo EarliestFit/LatestFit methods
// remain the oracles for the batch EarliestFits/LatestFits queries.

// coalesce merges adjacent segments with equal availability over the
// whole profile.
func (p *Profile) coalesce() {
	w := 0
	for i := 0; i < len(p.times); i++ {
		if w > 0 && p.free[w-1] == p.free[i] {
			continue
		}
		p.times[w] = p.times[i]
		p.free[w] = p.free[i]
		w++
	}
	p.times = p.times[:w]
	p.free = p.free[:w]
}

// referenceBreak is the pre-optimization ensureBreak: it looks t up
// over the whole breakpoint array, where ensureBreak searches only from
// a lower index, and inserts a breakpoint at t unless one exists.
func (p *Profile) referenceBreak(t model.Time) int {
	i := p.segAt(t)
	if p.times[i] == t {
		return i
	}
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.free[i+2:], p.free[i+1:])
	p.times[i+1] = t
	p.free[i+1] = p.free[i]
	return i + 1
}

// referenceReserve is the pre-optimization Reserve, kept verbatim.
func (p *Profile) referenceReserve(start, end model.Time, procs int) error {
	if err := p.reserveChecks(start, end, procs); err != nil {
		return err
	}
	i := p.referenceBreak(start)
	j := p.referenceBreak(end)
	for k := i; k < j; k++ {
		p.free[k] -= procs
	}
	p.coalesce()
	return nil
}

// referenceUnreserve is the pre-optimization Unreserve, kept verbatim.
func (p *Profile) referenceUnreserve(start, end model.Time, procs int) error {
	if err := p.unreserveChecks(start, end, procs); err != nil {
		return err
	}
	i := p.referenceBreak(start)
	j := p.referenceBreak(end)
	for k := i; k < j; k++ {
		p.free[k] += procs
	}
	p.coalesce()
	return nil
}
