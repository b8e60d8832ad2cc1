package main

import (
	"math"
	"time"

	"resched/internal/model"
	"resched/internal/profile"
)

// probeTarget is one profile a workload schedules against, with the
// time its requests are made at.
type probeTarget struct {
	avail profile.Intervals
	now   model.Time
}

// probeReps is how often each probe set is repeated; the fastest
// repetition is reported.
const probeReps = 5

// runProbes times fixed probe sets — the same requests for every
// workload and seed — against the workload's own profiles, and returns
// the mean microseconds per EarliestFits batch, per LatestFits batch
// and per Reserve+Unreserve pair. The batches hold one request per
// candidate allocation of a 4-hour task with a 10 % serial fraction,
// which is how the list schedulers probe.
func runProbes(targets []probeTarget) (earliest, latest, reserve float64) {
	if len(targets) == 0 {
		return 0, 0, 0
	}
	const starts = 16
	earliest, latest, reserve = math.Inf(1), math.Inf(1), math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		var e, l, r time.Duration
		var out []model.Time
		var ok []bool
		for _, tg := range targets {
			var reqs []profile.FitRequest
			for m := 1; m <= tg.avail.Capacity()/2; m *= 2 {
				reqs = append(reqs, profile.FitRequest{Procs: m, Dur: model.ExecTime(4*model.Hour, 0.1, m)})
			}
			t0 := time.Now()
			for k := 0; k < starts; k++ {
				out = tg.avail.EarliestFits(reqs, tg.now+model.Time(k)*6*model.Hour, out)
			}
			e += time.Since(t0)
			t0 = time.Now()
			for k := 0; k < starts; k++ {
				out, ok = tg.avail.LatestFits(reqs, tg.now, tg.now+model.Time(k+1)*12*model.Hour, out, ok)
			}
			l += time.Since(t0)

			work := tg.avail.CloneIntervals()
			for k := 0; k < starts; k++ {
				at := work.EarliestFit(1, model.Hour, tg.now+model.Time(k)*3*model.Hour)
				t0 = time.Now()
				err := work.Reserve(at, at+model.Hour, 1)
				if err == nil {
					err = work.Unreserve(at, at+model.Hour, 1)
				}
				r += time.Since(t0)
				if err != nil {
					panic("probe: reserving a slot EarliestFit returned: " + err.Error())
				}
			}
		}
		calls := float64(starts * len(targets))
		earliest = math.Min(earliest, float64(e.Nanoseconds())/1e3/calls)
		latest = math.Min(latest, float64(l.Nanoseconds())/1e3/calls)
		reserve = math.Min(reserve, float64(r.Nanoseconds())/1e3/calls)
	}
	return earliest, latest, reserve
}
