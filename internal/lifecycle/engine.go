package lifecycle

// This file is the engine's event loop core: the activation and
// completion event heap, AdvanceTo (fire due events, then run a
// scheduling pass), and the placement primitives — start-now,
// backfill-with-guardrail, and the starvation reservation. All of it
// runs on the single driving goroutine; e.mu is taken only for brief
// state updates, never across a book operation (the lockhold
// discipline).

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"resched/internal/model"
	"resched/internal/resbook"
)

// eventKind is what happens when an event fires.
type eventKind int

const (
	// evActivate: a starvation reservation reaches its start; the
	// book reservation is activated and the job starts running.
	evActivate eventKind = iota
	// evComplete: a running job's window ends; the reservation is
	// released and the job is done.
	evComplete
)

// event is one scheduled state transition.
type event struct {
	at    model.Time
	kind  eventKind
	jobID string
	resID string
}

// eventHeap is a min-heap on event time, ties broken by job ID so
// replays are deterministic.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].jobID < h[j].jobID
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// NextEvent returns the time of the engine's next scheduled event
// (activation or completion), if any. Replay uses it to step
// simulated time exactly.
func (e *Engine) NextEvent() (model.Time, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ev, ok := e.events.peek()
	return ev.at, ok
}

// errNoFitNow is the internal signal that a start-now transaction
// found no immediate fit; it aborts the Transact without booking.
var errNoFitNow = errors.New("lifecycle: no immediate fit")

// AdvanceTo moves the engine clock to now, firing every due
// activation and completion in time order, and then runs one
// scheduling pass over the queue. The clock never moves backward: a
// now before the current clock is clamped. AdvanceTo must only be
// called from the engine's driving goroutine.
func (e *Engine) AdvanceTo(ctx context.Context, now model.Time) error {
	e.stats.ticks.Add(1)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.mu.Lock()
		if now < e.now {
			now = e.now
		}
		ev, ok := e.events.peek()
		if !ok || ev.at > now {
			if now > e.now {
				e.now = now
			}
			e.mu.Unlock()
			break
		}
		heap.Pop(&e.events)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.mu.Unlock()
		if err := e.fire(ev); err != nil {
			return err
		}
	}
	return e.schedulePass(ctx, now)
}

// fire applies one due event against the book and the job table.
func (e *Engine) fire(ev event) error {
	switch ev.kind {
	case evActivate:
		if err := e.book.Activate(ev.resID); err != nil {
			return fmt.Errorf("lifecycle: activating %s for job %s: %w", ev.resID, ev.jobID, err)
		}
		e.stats.activations.Add(1)
		e.mu.Lock()
		j, ok := e.jobs[ev.jobID]
		if ok {
			j.State = Running
			heap.Push(&e.events, event{at: j.End, kind: evComplete, jobID: j.ID, resID: j.ReservationID})
		}
		e.mu.Unlock()
		e.log.Debug("activated", "job", ev.jobID, "reservation", ev.resID, "at", ev.at)
	case evComplete:
		if err := e.book.Release(ev.resID); err != nil {
			return fmt.Errorf("lifecycle: releasing %s for job %s: %w", ev.resID, ev.jobID, err)
		}
		e.stats.completions.Add(1)
		e.mu.Lock()
		if j, ok := e.jobs[ev.jobID]; ok {
			j.State = Done
		}
		e.mu.Unlock()
		e.log.Debug("completed", "job", ev.jobID, "at", ev.at)
	}
	return nil
}

// schedulePass serves the queue FCFS at time now. The first job that
// cannot start immediately blocks the queue; jobs behind it may only
// backfill, and only when they finish at or before the earliest
// pending reservation's activation — the hard guardrail. Jobs that
// fail to place accumulate attempts and queue age; crossing either
// starvation threshold books an advance reservation at the job's
// earliest feasible start.
func (e *Engine) schedulePass(ctx context.Context, now model.Time) error {
	e.mu.Lock()
	cand := make([]Job, 0, len(e.queue))
	for _, id := range e.queue {
		cand = append(cand, *e.jobs[id])
	}
	e.mu.Unlock()
	if len(cand) == 0 {
		return nil
	}

	guard, hasGuard := e.book.EarliestPendingActivation(now)
	blocked := false
	for _, job := range cand {
		placed := false
		backfilled := false
		if !blocked {
			res, ok, err := e.tryStartNow(ctx, job, now, e.book.Origin())
			if err != nil {
				return err
			}
			if ok {
				e.recordPlacement(job.ID, res, false, model.Infinity)
				continue
			}
			blocked = true
		} else if e.cfg.Backfill && (!hasGuard || now+job.Dur <= guard) {
			// guard was read before this pass; the fence re-checks it
			// when the placement commits, against Pending rows other
			// writers booked since.
			res, ok, err := e.tryStartNow(ctx, job, now, now+job.Dur)
			if err != nil {
				return err
			}
			if ok {
				bound := model.Infinity
				if hasGuard {
					bound = guard
				}
				e.recordPlacement(job.ID, res, true, bound)
				placed, backfilled = true, true
			}
		}
		if placed || backfilled {
			continue
		}

		if !e.bumpAttempts(job.ID, now) {
			continue
		}
		// Starvation: book the advance reservation at the earliest
		// feasible start, computed by replaying the fit against a
		// fresh snapshot.
		res, ok, err := e.reserveEarliest(ctx, job, now)
		if err != nil {
			return err
		}
		if !ok {
			continue // contended; retry next pass
		}
		e.recordReservation(job.ID, res)
		if !hasGuard || res.Start < guard {
			guard, hasGuard = res.Start, true
		}
	}
	return nil
}

// tryStartNow books and activates [now, now+dur) for the job if the
// profile fits it immediately and no Pending reservation starts before
// fence when it commits (the book's origin fences nothing). It reports
// ok=false both when there is no immediate fit and when the optimistic
// loop exhausted its retries (the next pass re-evaluates); any other
// failure is an engine error.
func (e *Engine) tryStartNow(ctx context.Context, job Job, now, fence model.Time) (resbook.Reservation, bool, error) {
	booked, _, err := e.book.TransactBefore(ctx, e.cfg.MaxRetries, fence, func(snap resbook.Snapshot) ([]resbook.Request, error) {
		// snap.Avail already is the right query backend: a zero-copy
		// persistent handle on the default book, a flat profile on the
		// oracle backend or below the auto threshold.
		fit, err := snap.Avail.EarliestFitChecked(job.Procs, job.Dur, now)
		if err != nil {
			return nil, err
		}
		if fit != now {
			return nil, errNoFitNow
		}
		return []resbook.Request{{Start: now, End: now + job.Dur, Procs: job.Procs}}, nil
	})
	if err != nil {
		if errors.Is(err, errNoFitNow) || errors.Is(err, resbook.ErrStale) {
			return resbook.Reservation{}, false, nil
		}
		return resbook.Reservation{}, false, fmt.Errorf("lifecycle: placing job %s: %w", job.ID, err)
	}
	res := booked[0]
	if err := e.book.Activate(res.ID); err != nil {
		return resbook.Reservation{}, false, fmt.Errorf("lifecycle: activating %s: %w", res.ID, err)
	}
	e.stats.activations.Add(1)
	return res, true, nil
}

// reserveEarliest books the starvation reservation: the job's window
// at its earliest feasible start as of the snapshot. The commit
// checks only that the window still fits, so a release that lands
// after the snapshot may leave an earlier start free. ok=false means
// the optimistic loop lost every retry to concurrent writers.
func (e *Engine) reserveEarliest(ctx context.Context, job Job, now model.Time) (resbook.Reservation, bool, error) {
	booked, _, err := e.book.Transact(ctx, e.cfg.MaxRetries, func(snap resbook.Snapshot) ([]resbook.Request, error) {
		fit, err := snap.Avail.EarliestFitChecked(job.Procs, job.Dur, now)
		if err != nil {
			return nil, err
		}
		return []resbook.Request{{Start: fit, End: fit + job.Dur, Procs: job.Procs}}, nil
	})
	if err != nil {
		if errors.Is(err, resbook.ErrStale) {
			return resbook.Reservation{}, false, nil
		}
		return resbook.Reservation{}, false, fmt.Errorf("lifecycle: reserving for job %s: %w", job.ID, err)
	}
	return booked[0], true, nil
}

// recordPlacement marks a job running on its just-activated
// reservation and schedules its completion.
func (e *Engine) recordPlacement(id string, res resbook.Reservation, backfilled bool, guard model.Time) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if ok {
		j.State = Running
		j.Start = res.Start
		j.End = res.End
		j.ReservationID = res.ID
		j.Backfilled = backfilled
		j.GuardBound = guard
		e.removeQueuedLocked(id)
		heap.Push(&e.events, event{at: res.End, kind: evComplete, jobID: id, resID: res.ID})
	}
	e.mu.Unlock()
	e.stats.placements.Add(1)
	if backfilled {
		e.stats.backfills.Add(1)
	}
	e.log.Debug("placed", "job", id, "reservation", res.ID, "start", res.Start, "end", res.End, "backfilled", backfilled)
}

// recordReservation marks a job Reserved on its pending starvation
// reservation and schedules the activation.
func (e *Engine) recordReservation(id string, res resbook.Reservation) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	if ok {
		j.State = Reserved
		j.Start = res.Start
		j.End = res.End
		j.ReservationID = res.ID
		j.Starved = true
		e.removeQueuedLocked(id)
		heap.Push(&e.events, event{at: res.Start, kind: evActivate, jobID: id, resID: res.ID})
	}
	e.mu.Unlock()
	e.stats.placements.Add(1)
	e.stats.starved.Add(1)
	e.log.Debug("starvation reservation", "job", id, "reservation", res.ID, "start", res.Start)
}

// bumpAttempts increments a queued job's failed-placement count and
// reports whether it crossed a starvation threshold this pass.
func (e *Engine) bumpAttempts(id string, now model.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	if !ok || j.State != Queued {
		return false
	}
	j.Attempts++
	if e.cfg.StarveAttempts > 0 && j.Attempts >= e.cfg.StarveAttempts {
		return true
	}
	if e.cfg.StarveAge > 0 && now-j.Submitted >= e.cfg.StarveAge {
		return true
	}
	return false
}

// removeQueuedLocked deletes one ID from the FCFS queue; e.mu must be
// held.
//
//reschedvet:holds mu
func (e *Engine) removeQueuedLocked(id string) {
	for i, q := range e.queue {
		if q == id {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}
