// Package resched is a library for scheduling mixed-parallel
// applications — DAGs of data-parallel (malleable) tasks — on a
// homogeneous cluster subject to advance reservations from competing
// users. It reproduces the algorithms and evaluation of:
//
//	Kento Aida and Henri Casanova.
//	"Scheduling Mixed-Parallel Applications with Advance Reservations".
//	HPDC 2008.
//
// Two scheduling problems are supported:
//
//   - RESSCHED — minimize turn-around time: (*Scheduler).Turnaround,
//     parameterized by a bottom-level method (BL_1, BL_ALL, BL_CPA,
//     BL_CPAR) and an allocation bounding method (BD_ALL, BD_HALF,
//     BD_CPA, BD_CPAR).
//   - RESSCHEDDL — meet a deadline: (*Scheduler).Deadline with the
//     aggressive (DL_BD_*), resource-conservative (DL_RC_*), and
//     hybrid lambda algorithms, plus (*Scheduler).TightestDeadline.
//
// The package also exposes the substrates the paper's evaluation is
// built on: Amdahl's-law task models (ExecTime), synthetic DAG
// generation (GenerateDAG, Table 1 of the paper), availability
// profiles over advance reservations (Profile), CPA allocations, and
// batch-workload synthesis plus reservation-schedule extraction
// (SynthesizeLog, ExtractReservations).
//
// # Quick start
//
//	g := resched.NewGraph(3)
//	a := g.AddTask(resched.Task{Name: "prep", Seq: 3600, Alpha: 0.1})
//	b := g.AddTask(resched.Task{Name: "solve", Seq: 7200, Alpha: 0.05})
//	g.MustAddEdge(a, b)
//
//	avail := resched.NewProfile(64, 0)          // 64-processor cluster
//	_ = avail.Reserve(0, 1800, 32)              // competing reservation
//
//	s, _ := resched.NewScheduler(g)
//	env := resched.Env{P: 64, Now: 0, Avail: avail}
//	sched, _ := s.Turnaround(env, resched.BLCPAR, resched.BDCPAR)
//	fmt.Println(sched.Turnaround(), sched.CPUHours())
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package resched

import (
	"io"
	"math/rand"

	"resched/internal/core"
	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/profile"
	"resched/internal/workload"
)

// Core types, re-exported from the implementation packages. Aliases
// keep the public surface in one importable package while the
// implementation stays modular.
type (
	// Time is an absolute time in seconds; Duration a span in seconds.
	Time     = model.Time
	Duration = model.Duration

	// Graph is a mixed-parallel application DAG; Task one data-parallel
	// task (sequential time + Amdahl serial fraction).
	Graph = dag.Graph
	Task  = dag.Task

	// Profile is the free-processor step function representing a
	// reservation schedule; Reservation one advance reservation.
	Profile     = profile.Profile
	Reservation = profile.Reservation
	// Intervals is the backend-neutral availability-profile interface:
	// both the flat Profile and the O(log n) copy-on-write treap that
	// large reservation-book snapshots hand out satisfy it, and
	// Env.Avail accepts either.
	Intervals = profile.Intervals

	// Scheduler runs the paper's algorithms for one application.
	Scheduler = core.Scheduler
	// Env is one scheduling environment (cluster, now, reservations,
	// historical average availability).
	Env = core.Env
	// Schedule is one reservation per task; Placement a single task's.
	Schedule  = core.Schedule
	Placement = core.Placement

	// BLMethod and BDMethod parameterize RESSCHED; DLAlgorithm selects
	// a RESSCHEDDL algorithm.
	BLMethod    = core.BLMethod
	BDMethod    = core.BDMethod
	DLAlgorithm = core.DLAlgorithm

	// DAGSpec describes a synthetic application (Table 1 parameters).
	DAGSpec = daggen.Spec

	// Log is a batch workload; Job one batch job; Archetype a synthetic
	// workload calibrated to one of the paper's traces; Extraction a
	// reservation schedule observed at a point in time; ExtractMethod
	// one of the linear/expo/real decay methods.
	Log           = workload.Log
	Job           = workload.Job
	Archetype     = workload.Archetype
	Extraction    = workload.Extraction
	ExtractMethod = workload.Method
)

// Time units, in seconds.
const (
	Second = model.Second
	Minute = model.Minute
	Hour   = model.Hour
	Day    = model.Day
	Week   = model.Week
)

// Bottom-level computation methods (Section 4.2 of the paper).
const (
	BL1    = core.BL1
	BLAll  = core.BLAll
	BLCPA  = core.BLCPA
	BLCPAR = core.BLCPAR
)

// Allocation bounding methods (Section 4.2).
const (
	BDAll  = core.BDAll
	BDHalf = core.BDHalf
	BDCPA  = core.BDCPA
	BDCPAR = core.BDCPAR
)

// Deadline-scheduling algorithms (Section 5).
const (
	DLBDAll          = core.DLBDAll
	DLBDCPA          = core.DLBDCPA
	DLBDCPAR         = core.DLBDCPAR
	DLRCCPA          = core.DLRCCPA
	DLRCCPAR         = core.DLRCCPAR
	DLRCCPARLambda   = core.DLRCCPARLambda
	DLRCBDCPARLambda = core.DLRCBDCPARLambda
)

// Reservation-schedule decay methods (Section 3.2.1).
const (
	Linear = workload.Linear
	Expo   = workload.Expo
	Real   = workload.Real
)

// ErrInfeasible is returned by deadline scheduling when the deadline
// cannot be met.
var ErrInfeasible = core.ErrInfeasible

// Workload archetypes calibrated to the paper's traces (Tables 2, 3).
var (
	CTCSP2     = workload.CTCSP2
	OSCCluster = workload.OSCCluster
	SDSCBlue   = workload.SDSCBlue
	SDSCDS     = workload.SDSCDS
	Grid5000   = workload.Grid5000
)

// NewGraph returns an empty application DAG with capacity for n tasks.
func NewGraph(n int) *Graph { return dag.New(n) }

// NewScheduler builds a Scheduler for the application, validating the
// DAG.
func NewScheduler(g *Graph) (*Scheduler, error) { return core.NewScheduler(g) }

// NewProfile returns a fully-free availability profile for a cluster
// of the given capacity starting at origin.
func NewProfile(capacity int, origin Time) *Profile { return profile.New(capacity, origin) }

// ProfileFromReservations builds an availability profile with the
// given competing reservations committed.
func ProfileFromReservations(capacity int, origin Time, rs []Reservation) (*Profile, error) {
	return profile.FromReservations(capacity, origin, rs)
}

// ExecTime evaluates the Amdahl's-law execution time (in whole
// seconds) of a task with sequential time seq and serial fraction
// alpha on m processors.
func ExecTime(seq Duration, alpha float64, m int) Duration { return model.ExecTime(seq, alpha, m) }

// CPAAllocate runs the CPA allocation phase for a cluster of p
// processors, returning per-task processor counts.
func CPAAllocate(g *Graph, p int) ([]int, error) { return cpa.Allocate(g, p, cpa.StopStringent) }

// DefaultDAGSpec returns the paper's default application configuration
// (Table 1 boldface values).
func DefaultDAGSpec() DAGSpec { return daggen.Default() }

// GenerateDAG builds a random application DAG from the spec.
func GenerateDAG(spec DAGSpec, rng *rand.Rand) (*Graph, error) { return daggen.Generate(spec, rng) }

// SynthesizeLog generates a synthetic batch log of the given length
// for one of the workload archetypes.
func SynthesizeLog(a Archetype, days int, rng *rand.Rand) (*Log, error) {
	return workload.Synthesize(a, days, rng)
}

// ParseSWF reads a workload log in Standard Workload Format.
func ParseSWF(r io.Reader, name string) (*Log, error) { return workload.ParseSWF(r, name) }

// ExtractReservations tags a fraction phi of the log's jobs as advance
// reservations and observes the reservation schedule at time at,
// reshaping it with the given decay method.
func ExtractReservations(lg *Log, phi float64, method ExtractMethod, at Time, rng *rand.Rand) (*Extraction, error) {
	return workload.Extract(lg, phi, method, at, rng)
}

// HistoricalAvail estimates the historical average number of available
// processors from past reservations (the q of the *_CPAR methods).
func HistoricalAvail(p int, past []Reservation, now Time, window Duration) (int, error) {
	return core.HistoricalAvail(p, past, now, window)
}

// ParseBL, ParseBD, and ParseDL resolve algorithm names as printed in
// the paper (e.g. "BD_CPAR", "DL_RC_CPAR-l").
func ParseBL(name string) (BLMethod, error)    { return core.ParseBL(name) }
func ParseBD(name string) (BDMethod, error)    { return core.ParseBD(name) }
func ParseDL(name string) (DLAlgorithm, error) { return core.ParseDL(name) }
