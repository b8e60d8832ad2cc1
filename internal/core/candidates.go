package core

import (
	"resched/internal/model"
	"resched/internal/profile"
)

// allocCandidates returns the allocation sizes in [1, bound] worth
// probing for a task: the smallest m for each distinct (whole-second)
// execution time. For two allocations with equal duration the smaller
// one dominates in every search this package performs — it is no harder
// to fit (EarliestFit can only be earlier or equal, LatestFit later or
// equal) and consumes fewer processor-hours — so skipping the larger
// ones changes no scheduling decision, only the constant factor.
func allocCandidates(seq model.Duration, alpha float64, bound int) []int {
	var ms []int
	for _, r := range appendFitRequests(nil, seq, alpha, bound) {
		ms = append(ms, r.Procs)
	}
	return ms
}

// appendFitRequests appends one (processors, duration) probe per
// allocCandidates entry to dst — the shared setup of every per-task
// candidate scan. With a caller-owned buffer (usually scratch[:0]) the
// schedulers' inner loops allocate nothing once the buffer has grown to
// its steady size.
func appendFitRequests(dst []profile.FitRequest, seq model.Duration, alpha float64, bound int) []profile.FitRequest {
	prev := model.Duration(-1)
	for m := 1; m <= bound; m++ {
		d := model.ExecTime(seq, alpha, m)
		if d != prev {
			dst = append(dst, profile.FitRequest{Procs: m, Dur: d})
			prev = d
		}
		if d <= 1 {
			break // durations cannot shrink further
		}
	}
	return dst
}
