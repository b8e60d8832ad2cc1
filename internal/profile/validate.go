package profile

// This file holds the validated entry points for the profile queries.
//
// The core query methods (EarliestFit, LatestFit, MinFree, AvgFree)
// panic on malformed arguments: inside the scheduling algorithms those
// are programming errors, and a panic is the right failure mode. A
// long-lived daemon serving untrusted requests cannot afford that — a
// malformed API request must become an HTTP 400, not a crash. The
// *Checked variants below validate their arguments and return errors;
// serving code (internal/resbook, internal/server) goes exclusively
// through them, while the batch schedulers keep the panicking fast
// path.
//
// The panicking queries silently clamp times before the profile origin
// up to the origin — convenient inside the schedulers, where "as soon
// as possible" is what the caller means, but a trap for API clients
// whose notBefore quietly moved. The Checked variants therefore reject
// pre-origin windows with ErrBeforeOrigin so serving code can report
// the clamp instead of hiding it.

import (
	"errors"
	"fmt"

	"resched/internal/model"
)

// ErrBeforeOrigin reports a query window starting before the profile
// origin. The panicking query methods clamp such windows silently; the
// *Checked variants reject them with an error wrapping this sentinel,
// so callers can distinguish "you asked about the past" from malformed
// arguments.
var ErrBeforeOrigin = errors.New("profile: time before profile origin")

// validateFit rejects processor counts and durations that the
// panicking query methods treat as programming errors.
func validateFit(capacity, procs int, dur model.Duration) error {
	if procs < 1 || procs > capacity {
		return fmt.Errorf("profile: %d processors outside [1,%d]", procs, capacity)
	}
	if dur < 0 {
		return fmt.Errorf("profile: negative duration %d", dur)
	}
	return nil
}

// validateWindow rejects empty query intervals.
func validateWindow(start, end model.Time) error {
	if end <= start {
		return fmt.Errorf("profile: empty interval [%d,%d)", start, end)
	}
	return nil
}

// validateOrigin rejects query times before the profile origin.
func validateOrigin(t, origin model.Time) error {
	if t < origin {
		return fmt.Errorf("%w: %d before origin %d", ErrBeforeOrigin, t, origin)
	}
	return nil
}

// EarliestFitChecked is EarliestFit with argument validation: it
// returns an error instead of panicking when procs is outside
// [1, capacity] or dur is negative, and rejects notBefore values
// before the origin (which EarliestFit silently clamps) with
// ErrBeforeOrigin.
func (p *Profile) EarliestFitChecked(procs int, dur model.Duration, notBefore model.Time) (model.Time, error) {
	if err := validateFit(p.capacity, procs, dur); err != nil {
		return 0, err
	}
	if err := validateOrigin(notBefore, p.Origin()); err != nil {
		return 0, err
	}
	return p.EarliestFit(procs, dur, notBefore), nil
}

// LatestFitChecked is LatestFit with argument validation. The boolean
// reports whether a feasible start exists; the error reports malformed
// arguments, including a notBefore before the origin (ErrBeforeOrigin).
func (p *Profile) LatestFitChecked(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool, error) {
	if err := validateFit(p.capacity, procs, dur); err != nil {
		return 0, false, err
	}
	if err := validateOrigin(notBefore, p.Origin()); err != nil {
		return 0, false, err
	}
	s, ok := p.LatestFit(procs, dur, notBefore, finishBy)
	return s, ok, nil
}

// MinFreeChecked is MinFree with argument validation: an empty
// interval yields an error instead of a panic, and a start before the
// origin yields ErrBeforeOrigin instead of a silent clamp.
func (p *Profile) MinFreeChecked(start, end model.Time) (int, error) {
	if err := validateWindow(start, end); err != nil {
		return 0, err
	}
	if err := validateOrigin(start, p.Origin()); err != nil {
		return 0, err
	}
	return p.MinFree(start, end), nil
}

// AvgFreeChecked is AvgFree with argument validation: an empty
// interval yields an error instead of a panic, and a start before the
// origin yields ErrBeforeOrigin instead of a silent clamp.
func (p *Profile) AvgFreeChecked(start, end model.Time) (float64, error) {
	if err := validateWindow(start, end); err != nil {
		return 0, err
	}
	if err := validateOrigin(start, p.Origin()); err != nil {
		return 0, err
	}
	return p.AvgFree(start, end), nil
}

// EarliestFitChecked is the persistent backend's validated
// EarliestFit; same contract as the flat variant.
func (t *PersistentProfile) EarliestFitChecked(procs int, dur model.Duration, notBefore model.Time) (model.Time, error) {
	if err := validateFit(t.capacity, procs, dur); err != nil {
		return 0, err
	}
	if err := validateOrigin(notBefore, t.origin); err != nil {
		return 0, err
	}
	return t.EarliestFit(procs, dur, notBefore), nil
}

// LatestFitChecked is the persistent backend's validated LatestFit;
// same contract as the flat variant.
func (t *PersistentProfile) LatestFitChecked(procs int, dur model.Duration, notBefore, finishBy model.Time) (model.Time, bool, error) {
	if err := validateFit(t.capacity, procs, dur); err != nil {
		return 0, false, err
	}
	if err := validateOrigin(notBefore, t.origin); err != nil {
		return 0, false, err
	}
	s, ok := t.LatestFit(procs, dur, notBefore, finishBy)
	return s, ok, nil
}

// MinFreeChecked is the persistent backend's validated MinFree; same
// contract as the flat variant.
func (t *PersistentProfile) MinFreeChecked(start, end model.Time) (int, error) {
	if err := validateWindow(start, end); err != nil {
		return 0, err
	}
	if err := validateOrigin(start, t.origin); err != nil {
		return 0, err
	}
	return t.MinFree(start, end), nil
}

// AvgFreeChecked is the persistent backend's validated AvgFree; same
// contract as the flat variant.
func (t *PersistentProfile) AvgFreeChecked(start, end model.Time) (float64, error) {
	if err := validateWindow(start, end); err != nil {
		return 0, err
	}
	if err := validateOrigin(start, t.origin); err != nil {
		return 0, err
	}
	return t.AvgFree(start, end), nil
}
