package profile

// This file holds the incremental step-function builder the
// reservation book uses to materialize a small snapshot into a pooled
// flat profile: Reset the destination, then AppendFree each segment in
// ascending time order. The appends coalesce, so the assembled profile
// satisfies the same representation invariants as one built by Reserve
// calls.

import (
	"fmt"

	"resched/internal/model"
)

// Reset reinitializes p as a fully free profile for a cluster of the
// given capacity starting at origin, reusing p's backing arrays. It is
// the starting point for AppendFree assembly.
func (p *Profile) Reset(capacity int, origin model.Time) {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	p.capacity = capacity
	p.times = append(p.times[:0], origin)
	p.free = append(p.free[:0], capacity)
}

// AppendFree extends the step function: free processors from time t
// onward. t must not precede the last breakpoint; t equal to the last
// breakpoint overwrites that segment's value. Appends coalesce, so
// feeding segments of equal availability in sequence keeps the
// representation canonical.
func (p *Profile) AppendFree(t model.Time, free int) {
	n := len(p.times)
	if n == 0 {
		p.times = append(p.times, t)
		p.free = append(p.free, free)
		return
	}
	last := p.times[n-1]
	if t < last {
		panic(fmt.Sprintf("profile: append at %d before last breakpoint %d", t, last))
	}
	if t == last {
		p.free[n-1] = free
		if n >= 2 && p.free[n-2] == free {
			p.times = p.times[:n-1]
			p.free = p.free[:n-1]
		}
		return
	}
	if p.free[n-1] == free {
		return // coalesced into the running segment
	}
	p.times = append(p.times, t)
	p.free = append(p.free, free)
}
