package resched

// This file exposes the library's extensions beyond the paper — the
// future-work directions its conclusion names and the assumptions its
// Section 3 makes explicit:
//
//   - blind scheduling through a probe-style batch-system interface
//     (dropping the full-knowledge-of-the-reservation-schedule
//     assumption of Section 3.2.2),
//   - a one-step allocate-and-map scheduler in the spirit of iCASLB,
//     adapted to advance reservations,
//   - multi-site platforms with per-site reservation schedules, speeds,
//     staging delays, and both turnaround and deadline scheduling,
//   - booking against a reservation table that changes between
//     requests (naive / rebook / replan strategies),
//   - the pessimistic-runtime-estimate study Section 3.1 defers,
//
// plus ASCII Gantt rendering and JSON schedule interchange.

import (
	"io"
	"math/rand"

	"resched/internal/core"
	"resched/internal/dag"
	"resched/internal/dynamic"
	"resched/internal/gantt"
	"resched/internal/multicluster"
	"resched/internal/onestep"
	"resched/internal/pessimism"
	"resched/internal/probe"
	"resched/internal/schedio"
)

// Blind scheduling (package probe).
type (
	// BatchSystem is the probe-and-book dialogue a real batch scheduler
	// exposes when the reservation table is hidden.
	BatchSystem = probe.BatchSystem
	// SimulatedBatch backs BatchSystem with an availability profile.
	SimulatedBatch = probe.SimulatedBatch
	// BlindOptions tunes the blind scheduler (probe budget, q).
	BlindOptions = probe.Options
	// BlindResult carries the schedule and the probe count.
	BlindResult = probe.Result
)

// NewSimulatedBatch wraps a clone of the profile as a BatchSystem.
func NewSimulatedBatch(avail Intervals, now Time) *SimulatedBatch {
	return probe.NewSimulatedBatch(avail, now)
}

// BlindSchedule places the application through a BatchSystem using a
// bounded number of probes per task — the blind counterpart of the
// BL_CPAR_BD_CPAR heuristic.
func BlindSchedule(g *Graph, bs BatchSystem, opt BlindOptions) (*BlindResult, error) {
	return probe.Schedule(g, bs, opt)
}

// One-step scheduling (package onestep).
type (
	// OneStepOptions tunes the iCASLB-style search.
	OneStepOptions = onestep.Options
	// OneStepResult carries the schedule and search statistics.
	OneStepResult = onestep.Result
)

// OneStepSchedule runs the one-step allocate-and-map scheduler against
// the reservation schedule.
func OneStepSchedule(g *Graph, env Env, opt OneStepOptions) (*OneStepResult, error) {
	return onestep.Schedule(g, env, opt)
}

// Multi-site scheduling (package multicluster).
type (
	// Site is one cluster of a multi-site platform.
	Site = multicluster.Cluster
	// MultiEnv is a multi-site scheduling environment.
	MultiEnv = multicluster.Env
	// MultiOptions holds the inter-site staging delay.
	MultiOptions = multicluster.Options
	// MultiSchedule is a schedule with per-task site assignments.
	MultiSchedule = multicluster.Schedule
	// MultiPlacement is one task's (site, processors, interval).
	MultiPlacement = multicluster.Placement
)

// MultiTurnaround schedules the application across a multi-site
// platform, minimizing completion time.
func MultiTurnaround(g *Graph, env MultiEnv, opt MultiOptions) (*MultiSchedule, error) {
	return multicluster.Turnaround(g, env, opt)
}

// MultiDeadline schedules the application backward from a deadline
// across a multi-site platform (aggressive strategy, CPA-bounded
// allocations).
func MultiDeadline(g *Graph, env MultiEnv, opt MultiOptions, deadline Time) (*MultiSchedule, error) {
	return multicluster.Deadline(g, env, opt, deadline)
}

// MultiVerify validates a multi-site schedule against its environment.
func MultiVerify(g *Graph, env MultiEnv, s *MultiSchedule, opt MultiOptions) error {
	return multicluster.Verify(g, env, s, opt)
}

// RenderGantt writes an ASCII Gantt chart of the schedule (width
// columns; <= 0 selects the default).
func RenderGantt(w io.Writer, g *Graph, env Env, s *Schedule, width int) error {
	return gantt.Render(w, g, env, s, width)
}

// Dynamic reservation schedules (package dynamic).
type (
	// DynamicStrategy reacts to booking conflicts: naive, rebook, or
	// replan.
	DynamicStrategy = dynamic.Strategy
	// DynamicCompetitor models the competing reservation stream.
	DynamicCompetitor = dynamic.Competitor
	// DynamicResult reports conflicts, replans, and realized schedule.
	DynamicResult = dynamic.Result
)

// Dynamic conflict strategies.
const (
	DynamicNaive  = dynamic.Naive
	DynamicRebook = dynamic.Rebook
	DynamicReplan = dynamic.Replan
)

// ErrDynamicConflict is returned by the naive strategy on the first
// booking conflict.
var ErrDynamicConflict = dynamic.ErrConflict

// DefaultCompetitor sizes a competing-reservation stream for a cluster
// of p processors.
func DefaultCompetitor(p int) DynamicCompetitor { return dynamic.DefaultCompetitor(p) }

// DynamicRun plans against a snapshot and books task by task while
// competitors inject reservations — the paper's relaxed
// static-schedule assumption.
func DynamicRun(g *Graph, env Env, comp DynamicCompetitor, strategy DynamicStrategy, rng *rand.Rand) (*DynamicResult, error) {
	return dynamic.Run(g, env, comp, strategy, rng)
}

// Pessimistic runtime estimates (package pessimism).
type (
	// PessimismResult quantifies one overestimation factor.
	PessimismResult = pessimism.Result
)

// EvaluatePessimism books reservations sized for factor-inflated
// runtimes and replays the true runtimes inside them.
func EvaluatePessimism(g *Graph, env Env, factor float64) (*PessimismResult, error) {
	return pessimism.Evaluate(g, env, factor)
}

// SweepPessimism evaluates several overestimation factors on one
// instance.
func SweepPessimism(g *Graph, env Env, factors []float64) ([]*PessimismResult, error) {
	return pessimism.Sweep(g, env, factors)
}

// Schedule and reservation-schedule interchange (package schedio).

// WriteSchedule serializes a schedule as JSON (one reservation request
// per task), with task names from the graph.
func WriteSchedule(w io.Writer, g *Graph, s *Schedule) error { return schedio.Write(w, g, s) }

// ReadSchedule parses a JSON schedule for the graph; validate it with
// (*Scheduler).Verify.
func ReadSchedule(r io.Reader, g *Graph) (*Schedule, error) { return schedio.Read(r, g) }

// WriteReservations serializes a competing-reservation schedule.
func WriteReservations(w io.Writer, procs int, now Time, rs []Reservation) error {
	return schedio.WriteReservations(w, procs, now, rs)
}

// ReadReservations parses a reservation schedule and checks it is
// capacity-feasible.
func ReadReservations(r io.Reader) (procs int, now Time, rs []Reservation, err error) {
	return schedio.ReadReservations(r)
}

// Interface conformance pins: the facade aliases must stay aligned
// with the implementation packages.
var (
	_ BatchSystem = (*SimulatedBatch)(nil)
	_ *dag.Graph  = (*Graph)(nil)
	_ core.Env    = Env{}
)
