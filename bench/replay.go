package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"resched/internal/lifecycle"
	"resched/internal/model"
	"resched/internal/resbook"
	"resched/internal/workload"
)

// bsldTau is the bounded-slowdown runtime floor lifecycle.Report uses.
const bsldTau = 10

// replayWorkload drives a lifecycle.Engine through a job trace in
// simulated time, a fresh engine and book every round. One operation is
// one job: its Submit and the AdvanceTo calls since the previous
// arrival was served.
type replayWorkload struct {
	procs     int
	first     model.Time
	trace     []lifecycle.Arrival
	synthTime time.Duration

	book  *resbook.Book   // of the last round, for settle
	ids   []string        // job IDs of the last round, in arrival order
	jobs  []lifecycle.Job // of the last keep round
	stats lifecycle.StatsSnapshot
	mid   resbook.Snapshot // the book halfway through the trace, for the probes
}

// nudgeEvery is the share of trace jobs whose runtime the seed extends:
// one in nudgeEvery. Replay is chaotic — a completion a second later
// lets another job backfill, and the paths diverge for the rest of the
// month — so perturbing every job by ±1 % moves mean turn-around by 1.5 %
// between seeds however small the perturbation; nudging a handful keeps
// the seeds on paths that part late and rejoin.
const nudgeEvery = 500

// newReplayOnline synthesizes the 30-day SDSC_BLUE master trace and
// lets the seed pick the jobs that run a second or two longer.
func newReplayOnline(seed int64, scale float64) (runner, error) {
	draw := rand.New(rand.NewSource(seed))
	days := max(1, int(30*scale))
	t0 := time.Now()
	lg, err := workload.Synthesize(workload.SDSCBlue, days, rand.New(rand.NewSource(masterSeed)))
	if err != nil {
		return nil, err
	}
	w := &replayWorkload{procs: lg.Procs, synthTime: time.Since(t0)}
	w.first, _ = lg.Span()
	for _, j := range lg.Jobs {
		w.trace = append(w.trace, lifecycle.Arrival{At: j.Submit, Procs: j.Procs, Dur: j.Run})
	}
	for _, i := range draw.Perm(len(w.trace))[:len(w.trace)/nudgeEvery+1] {
		w.trace[i].Dur += 1 + draw.Int63n(2)
	}
	return w, nil
}

func (w *replayWorkload) ops() int { return len(w.trace) }

// replay is lifecycle.Engine.Replay's loop — the trace is already
// sorted by arrival — rebuilt from the exported NextEvent, AdvanceTo
// and Submit so that each job's latency can be taken. Jobs arriving in
// the same second are served by one pass and share its time. tr, when
// set, gets a span per engine call.
func (w *replayWorkload) replay(lat []time.Duration, tr *tracer, keepMid bool) (*lifecycle.Engine, error) {
	book, err := resbook.NewSharded(w.procs, w.first, 8, model.Day)
	if err != nil {
		return nil, err
	}
	eng, err := lifecycle.New(lifecycle.Config{Book: book, Backfill: true})
	if err != nil {
		return nil, err
	}
	w.book = book
	if w.ids == nil {
		w.ids = make([]string, len(w.trace))
	}
	ctx := context.Background()
	advance := func(t model.Time) error {
		tr.begin("lifecycle.advance")
		defer tr.end()
		return eng.AdvanceTo(ctx, t)
	}
	// With a tracer, "op" spans tile the whole replay — one per batch of
	// same-second arrivals and one for the drain — so that their sum is
	// what an untraced round times.
	opOpen := false
	openOp := func(i int) {
		if tr != nil && !opOpen {
			tr.op = int32(i)
			tr.begin("op")
			opOpen = true
		}
	}
	closeOp := func() {
		if opOpen {
			tr.end()
			opOpen = false
		}
	}

	arr := w.trace
	i := 0
	t0 := time.Now()
	for i < len(arr) {
		openOp(i)
		t := arr[i].At
		if et, ok := eng.NextEvent(); ok && et < t {
			t = et
		}
		t = max(t, eng.Now())
		if err := advance(t); err != nil {
			return nil, err
		}
		first := i
		for i < len(arr) && arr[i].At <= t {
			tr.begin("lifecycle.submit")
			job, err := eng.Submit(arr[i].Procs, arr[i].Dur)
			tr.end()
			if err != nil {
				return nil, fmt.Errorf("arrival %d: %w", i, err)
			}
			w.ids[i] = job.ID
			i++
		}
		if i == first {
			continue
		}
		// A second pass at the same instant serves the new arrivals.
		if err := advance(t); err != nil {
			return nil, err
		}
		closeOp()
		if lat != nil {
			share := time.Since(t0) / time.Duration(i-first)
			for k := first; k < i; k++ {
				lat[k] = share
			}
			t0 = time.Now()
		}
		if keepMid && first <= len(arr)/2 && len(arr)/2 < i {
			w.mid = book.Snapshot()
		}
	}

	// Drain: fire the remaining events; leftovers age until the
	// starvation trigger books them a reservation.
	openOp(-1)
	defer closeOp()
	idle := 0
	for {
		st := eng.Stats()
		if st.Completions == st.Arrivals {
			return eng, nil
		}
		t := eng.Now()
		if et, ok := eng.NextEvent(); ok {
			t = et
		}
		if err := advance(t); err != nil {
			return nil, err
		}
		if eng.Stats().Completions > st.Completions {
			idle = 0
			continue
		}
		if idle++; idle > 1024 {
			return nil, fmt.Errorf("replay stalled with %d/%d jobs done at t=%d", st.Completions, st.Arrivals, eng.Now())
		}
		if _, ok := eng.NextEvent(); !ok {
			if err := advance(eng.Now() + 15*model.Minute); err != nil {
				return nil, err
			}
		}
	}
}

func (w *replayWorkload) round(lat []time.Duration, keep bool) (roundOutcome, error) {
	t0 := time.Now()
	eng, err := w.replay(lat, nil, keep)
	if err != nil {
		return roundOutcome{}, err
	}
	out := roundOutcome{wall: time.Since(t0)}
	// Engine.Jobs would sort its copies by insertion, a fifth of a
	// replay's time on this trace; look the jobs up by ID.
	if keep {
		w.jobs = w.jobs[:0]
		w.stats = eng.Stats()
	}
	h := newChecksum()
	for _, id := range w.ids {
		j, ok := eng.Job(id)
		if !ok || j.State != lifecycle.Done {
			out.failed++
		}
		h.word(uint64(j.Start))
		h.word(uint64(j.End))
		if keep {
			w.jobs = append(w.jobs, j)
		}
	}
	out.sum = h.sum()
	return out, nil
}

// check replays the trace through lifecycle.Engine.Replay itself on a
// fresh engine and requires the kept round to agree with its report:
// the rebuilt loop must make the engine's own decisions.
func (w *replayWorkload) check() (int, error) {
	book, err := resbook.NewSharded(w.procs, w.first, 8, model.Day)
	if err != nil {
		return 0, err
	}
	eng, err := lifecycle.New(lifecycle.Config{Book: book, Backfill: true})
	if err != nil {
		return 0, err
	}
	rep, err := eng.Replay(context.Background(), w.trace)
	if err != nil {
		return 0, err
	}
	wait, _, _ := w.online()
	if rep.Completed != len(w.jobs) || rep.Backfills != w.stats.Backfills ||
		rep.Starved != w.stats.StarvationReservations || math.Abs(rep.MeanWait-wait) > 1e-6 {
		return len(w.jobs), nil
	}
	return 0, nil
}

// settle checks the book the last round drove: every shard profile
// well-formed, and the ledger — all released by now — replaying to it.
func (w *replayWorkload) settle() error { return w.book.CheckInvariants() }

func (w *replayWorkload) traced(tr *tracer) (int, error) {
	eng, err := w.replay(nil, tr, false)
	if err != nil {
		return 0, err
	}
	st := eng.Stats()
	return int(st.Arrivals - st.Completions), nil
}

// online computes mean wait, mean bounded slowdown and utilization of
// the kept round the way lifecycle.Report does.
func (w *replayWorkload) online() (wait, bsld, util float64) {
	first, last := model.Infinity, model.Time(0)
	var area float64
	for _, j := range w.jobs {
		first = min(first, j.Submitted)
		last = max(last, j.End)
		run := j.End - j.Start
		area += float64(j.Procs) * float64(run)
		wait += float64(j.Wait())
		bsld += math.Max(1, float64(j.Wait()+run)/float64(max(run, bsldTau)))
	}
	n := float64(len(w.jobs))
	return wait / n, bsld / n, area / (float64(w.procs) * float64(last-first))
}

// quality is the mean turn-around (wait plus run) per job and the mean
// CPU-hours a job reserved.
func (w *replayWorkload) quality() (float64, float64) {
	var turn, procSeconds float64
	for _, j := range w.jobs {
		turn += float64(j.End - j.Submitted)
		procSeconds += float64(j.Procs) * float64(j.End-j.Start)
	}
	n := float64(len(w.jobs))
	return turn / n, procSeconds / 3600 / n
}

func (w *replayWorkload) layers(m map[string]float64) {
	wait, bsld, util := w.online()
	m["workload.synthesize_s"] = w.synthTime.Seconds()
	m["lifecycle.backfills"] = float64(w.stats.Backfills)
	m["lifecycle.starvation_reservations"] = float64(w.stats.StarvationReservations)
	m["lifecycle.wait_mean_s"] = wait
	m["lifecycle.bsld_mean"] = bsld
	m["lifecycle.utilization"] = util
	m["resbook.reservations"] = float64(w.stats.Placements)
	m["profile.segments"] = float64(w.mid.Avail.NumSegments())
}

func (w *replayWorkload) probes() []probeTarget {
	return []probeTarget{{avail: w.mid.Avail, now: w.trace[len(w.trace)/2].At}}
}
