// Package multicluster extends the single-cluster algorithms to
// multi-site platforms, the third future-work direction in the paper's
// conclusion. Each site is a homogeneous cluster with its own
// reservation schedule; a data-parallel task executes wholly within
// one site (malleable tasks do not span clusters), and moving data
// between sites costs a configurable staging delay per crossing edge —
// zero by default, matching the paper's file-based communication model
// whose cost is folded into task execution times.
//
// The scheduler generalizes the paper's best RESSCHED heuristic
// (BL_CPAR + BD_CPAR): bottom levels come from CPA allocations for the
// platform's aggregate historical availability, per-site allocation
// bounds come from CPA runs against each site's own availability, and
// every task is placed at the earliest completion time over all
// (site, allocation) pairs.
package multicluster

import (
	"fmt"
	"math"

	"resched/internal/core"
	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/model"
	"resched/internal/profile"
)

// Cluster is one site of the platform.
type Cluster struct {
	// Name labels the site in schedules and errors.
	Name string
	// P is the site's processor count.
	P int
	// Avail is the site's availability profile (competing
	// reservations). Never modified by the scheduler.
	Avail *profile.Profile
	// Q is the site's historical average number of available
	// processors; zero means P.
	Q int
	// Speed is the site's relative processor speed; zero means 1.0
	// (homogeneous). A task's sequential time on this site is
	// Seq/Speed, the heterogeneous model of N'Takpé, Suter & Casanova
	// (ISPDC 2007) restricted to uniform speeds within a site.
	Speed float64
}

// seqOn returns a task's effective sequential time on this site.
func (c Cluster) seqOn(seq model.Duration) model.Duration {
	speed := c.Speed
	if speed == 0 {
		speed = 1
	}
	scaled := model.Duration(float64(seq)/speed + 0.5)
	if scaled < 1 && seq > 0 {
		scaled = 1
	}
	return scaled
}

// Env is a multi-site scheduling environment.
type Env struct {
	Clusters []Cluster
	Now      model.Time
}

// validate returns per-site effective q values. g is the application
// the sites will run: a speed is rejected when g's longest task, scaled
// to it, would not fit the scheduling horizon.
func (e *Env) validate(g *dag.Graph) ([]int, error) {
	if len(e.Clusters) == 0 {
		return nil, fmt.Errorf("multicluster: no clusters")
	}
	var maxSeq model.Duration
	for i := 0; i < g.NumTasks(); i++ {
		maxSeq = max(maxSeq, g.Task(i).Seq)
	}
	qs := make([]int, len(e.Clusters))
	for i, c := range e.Clusters {
		if c.P < 1 {
			return nil, fmt.Errorf("multicluster: cluster %q has %d processors", c.Name, c.P)
		}
		if c.Avail == nil || c.Avail.Capacity() != c.P {
			return nil, fmt.Errorf("multicluster: cluster %q has an inconsistent profile", c.Name)
		}
		if c.Avail.Origin() > e.Now {
			return nil, fmt.Errorf("multicluster: cluster %q profile starts after now", c.Name)
		}
		if c.Speed < 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
			return nil, fmt.Errorf("multicluster: cluster %q has invalid speed %v", c.Name, c.Speed)
		}
		if c.Speed != 0 && float64(maxSeq)/c.Speed >= float64(model.Infinity) {
			return nil, fmt.Errorf("multicluster: cluster %q speed %v stretches a %d s task beyond the scheduling horizon", c.Name, c.Speed, maxSeq)
		}
		q := c.Q
		if q == 0 {
			q = c.P
		}
		if q < 1 || q > c.P {
			return nil, fmt.Errorf("multicluster: cluster %q has q %d outside [1,%d]", c.Name, q, c.P)
		}
		qs[i] = q
	}
	return qs, nil
}

// scaledGraph returns the application as seen from a site: sequential
// times divided by the site's speed. Speed 1 returns the graph itself.
func scaledGraph(g *dag.Graph, c Cluster) *dag.Graph {
	if c.Speed == 0 || c.Speed == 1 {
		return g
	}
	out := dag.New(g.NumTasks())
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(i)
		out.AddTask(dag.Task{Name: t.Name, Seq: c.seqOn(t.Seq), Alpha: t.Alpha})
	}
	for i := 0; i < g.NumTasks(); i++ {
		for _, s := range g.Successors(i) {
			out.MustAddEdge(i, s)
		}
	}
	return out
}

// Placement is one task's reservation: a site plus the usual triple.
type Placement struct {
	Cluster int
	Procs   int
	Start   model.Time
	End     model.Time
}

// Schedule is a complete multi-site schedule.
type Schedule struct {
	Now   model.Time
	Tasks []Placement
}

// Completion returns the latest task end.
func (s *Schedule) Completion() model.Time {
	c := s.Now
	for _, pl := range s.Tasks {
		if pl.End > c {
			c = pl.End
		}
	}
	return c
}

// Turnaround returns Completion() - Now.
func (s *Schedule) Turnaround() model.Duration { return s.Completion() - s.Now }

// CPUHours returns the total reserved processor-hours across sites.
func (s *Schedule) CPUHours() float64 {
	var sum model.Duration
	for _, pl := range s.Tasks {
		sum += model.Duration(pl.Procs) * (pl.End - pl.Start)
	}
	return model.CPUHours(sum)
}

// AllocPolicy selects how per-site task allocations are bounded.
type AllocPolicy int

const (
	// PolicyCPA bounds each task by its per-site CPA allocation — the
	// HCPA-inspired default (N'Takpé, Suter & Casanova, ISPDC 2007).
	PolicyCPA AllocPolicy = iota
	// PolicyUnbounded considers every allocation up to the site size —
	// the M-HEFT-style choice, which buys turnaround on narrow DAGs at
	// a steep CPU-hour premium (the multi-site analogue of BD_ALL).
	PolicyUnbounded
)

func (p AllocPolicy) String() string {
	switch p {
	case PolicyCPA:
		return "cpa"
	case PolicyUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("AllocPolicy(%d)", int(p))
	}
}

// Options tunes the multi-site scheduler.
type Options struct {
	// StageDelay is added to a predecessor's finish time when the
	// successor runs on a different site (file staging between sites).
	StageDelay model.Duration
	// Policy selects the allocation bound (PolicyCPA by default).
	Policy AllocPolicy
}

// Turnaround schedules the application across the platform, minimizing
// completion time task by task in decreasing bottom-level order.
func Turnaround(g *dag.Graph, env Env, opt Options) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	qs, err := env.validate(g)
	if err != nil {
		return nil, err
	}
	if opt.StageDelay < 0 {
		return nil, fmt.Errorf("multicluster: negative stage delay %d", opt.StageDelay)
	}

	// Bottom levels from CPA allocations against the platform's
	// largest historical availability (the closest single-cluster
	// equivalent of BL_CPAR).
	qMax := qs[0]
	for _, q := range qs[1:] {
		if q > qMax {
			qMax = q
		}
	}
	blAlloc, err := cpa.Allocate(g, qMax, cpa.StopStringent)
	if err != nil {
		return nil, err
	}
	exec, err := g.ExecTimes(blAlloc)
	if err != nil {
		return nil, err
	}
	order, err := cpa.PriorityOrder(g, exec)
	if err != nil {
		return nil, err
	}

	bounds, err := siteBounds(g, env, qs, opt.Policy)
	if err != nil {
		return nil, err
	}
	avails := make([]*profile.Profile, len(env.Clusters))
	for c := range env.Clusters {
		avails[c] = env.Clusters[c].Avail.Clone()
	}

	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, g.NumTasks())}
	for _, t := range order {
		task := g.Task(t)
		best := Placement{Cluster: -1}
		bestFinish := model.Infinity
		for c := range env.Clusters {
			// Ready time on this site: predecessors on other sites pay
			// the staging delay.
			ready := env.Now
			for _, pr := range g.Predecessors(t) {
				f := sched.Tasks[pr].End
				if sched.Tasks[pr].Cluster != c {
					f += opt.StageDelay
				}
				if f > ready {
					ready = f
				}
			}
			limit := bounds[c][t]
			if limit > env.Clusters[c].P {
				limit = env.Clusters[c].P
			}
			seq := env.Clusters[c].seqOn(task.Seq)
			for m := 1; m <= limit; m++ {
				d := model.ExecTime(seq, task.Alpha, m)
				st := avails[c].EarliestFit(m, d, ready)
				if st+d < bestFinish {
					best = Placement{Cluster: c, Procs: m, Start: st, End: st + d}
					bestFinish = st + d
				}
			}
		}
		if best.Cluster < 0 {
			return nil, fmt.Errorf("multicluster: no placement for task %d", t)
		}
		if best.End > best.Start {
			if err := avails[best.Cluster].Reserve(best.Start, best.End, best.Procs); err != nil {
				return nil, fmt.Errorf("multicluster: reserving task %d on %q: %w", t, env.Clusters[best.Cluster].Name, err)
			}
		}
		sched.Tasks[t] = best
	}
	return sched, nil
}

// Deadline solves the multi-site RESSCHEDDL problem with the
// aggressive backward strategy: tasks in increasing bottom-level order,
// each at the (site, allocation, start) triple with the latest start
// that still finishes before its successors begin, allocations bounded
// by the per-site CPA allocation. It returns an error wrapping
// core-style infeasibility when no placement exists.
func Deadline(g *dag.Graph, env Env, opt Options, deadline model.Time) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	qs, err := env.validate(g)
	if err != nil {
		return nil, err
	}
	if opt.StageDelay < 0 {
		return nil, fmt.Errorf("multicluster: negative stage delay %d", opt.StageDelay)
	}
	if deadline < env.Now {
		return nil, fmt.Errorf("multicluster: deadline %d before now %d", deadline, env.Now)
	}

	qMax := qs[0]
	for _, q := range qs[1:] {
		if q > qMax {
			qMax = q
		}
	}
	blAlloc, err := cpa.Allocate(g, qMax, cpa.StopStringent)
	if err != nil {
		return nil, err
	}
	exec, err := g.ExecTimes(blAlloc)
	if err != nil {
		return nil, err
	}
	fwd, err := cpa.PriorityOrder(g, exec)
	if err != nil {
		return nil, err
	}
	bounds, err := siteBounds(g, env, qs, opt.Policy)
	if err != nil {
		return nil, err
	}
	avails := make([]*profile.Profile, len(env.Clusters))
	for c := range env.Clusters {
		avails[c] = env.Clusters[c].Avail.Clone()
	}

	sched := &Schedule{Now: env.Now, Tasks: make([]Placement, g.NumTasks())}
	scheduled := make([]bool, g.NumTasks())
	for i := len(fwd) - 1; i >= 0; i-- {
		t := fwd[i]
		task := g.Task(t)
		best := Placement{Cluster: -1}
		for c := range env.Clusters {
			// This task must finish before each scheduled successor
			// starts — minus the staging delay when the successor sits
			// on another site.
			dl := deadline
			for _, sc := range g.Successors(t) {
				if !scheduled[sc] {
					continue
				}
				limit := sched.Tasks[sc].Start
				if sched.Tasks[sc].Cluster != c {
					limit -= opt.StageDelay
				}
				if limit < dl {
					dl = limit
				}
			}
			limit := bounds[c][t]
			if limit > env.Clusters[c].P {
				limit = env.Clusters[c].P
			}
			seq := env.Clusters[c].seqOn(task.Seq)
			for m := 1; m <= limit; m++ {
				d := model.ExecTime(seq, task.Alpha, m)
				st, ok := avails[c].LatestFit(m, d, env.Now, dl)
				if ok && (best.Cluster < 0 || st > best.Start) {
					best = Placement{Cluster: c, Procs: m, Start: st, End: st + d}
				}
			}
		}
		if best.Cluster < 0 {
			return nil, fmt.Errorf("multicluster: %w: task %d has no feasible placement", core.ErrInfeasible, t)
		}
		if best.End > best.Start {
			if err := avails[best.Cluster].Reserve(best.Start, best.End, best.Procs); err != nil {
				return nil, fmt.Errorf("multicluster: reserving task %d: %w", t, err)
			}
		}
		sched.Tasks[t] = best
		scheduled[t] = true
	}
	return sched, nil
}

// siteBounds computes per-site per-task allocation bounds under the
// chosen policy: CPA allocations against each site's q with the site's
// speed-scaled execution times, or the site size when unbounded.
func siteBounds(g *dag.Graph, env Env, qs []int, policy AllocPolicy) ([][]int, error) {
	bounds := make([][]int, len(env.Clusters))
	for c := range env.Clusters {
		switch policy {
		case PolicyCPA:
			b, err := cpa.Allocate(scaledGraph(g, env.Clusters[c]), qs[c], cpa.StopStringent)
			if err != nil {
				return nil, err
			}
			bounds[c] = b
		case PolicyUnbounded:
			bounds[c] = g.UniformAlloc(env.Clusters[c].P)
		default:
			return nil, fmt.Errorf("multicluster: unknown allocation policy %v", policy)
		}
	}
	return bounds, nil
}

// Verify checks a multi-site schedule: placements reference valid
// sites, durations match the model, staging-aware precedence holds,
// and each site's reservations fit its profile.
func Verify(g *dag.Graph, env Env, s *Schedule, opt Options) error {
	if _, err := env.validate(g); err != nil {
		return err
	}
	if s == nil || len(s.Tasks) != g.NumTasks() {
		return fmt.Errorf("multicluster: schedule shape mismatch")
	}
	avails := make([]*profile.Profile, len(env.Clusters))
	for c := range env.Clusters {
		avails[c] = env.Clusters[c].Avail.Clone()
	}
	for t, pl := range s.Tasks {
		if pl.Cluster < 0 || pl.Cluster >= len(env.Clusters) {
			return fmt.Errorf("multicluster: task %d on unknown cluster %d", t, pl.Cluster)
		}
		site := env.Clusters[pl.Cluster]
		if pl.Procs < 1 || pl.Procs > site.P {
			return fmt.Errorf("multicluster: task %d uses %d of %d processors on %q", t, pl.Procs, site.P, site.Name)
		}
		if pl.Start < env.Now {
			return fmt.Errorf("multicluster: task %d starts before now", t)
		}
		task := g.Task(t)
		if want := model.ExecTime(site.seqOn(task.Seq), task.Alpha, pl.Procs); pl.End-pl.Start != want {
			return fmt.Errorf("multicluster: task %d duration %d, model says %d on %q", t, pl.End-pl.Start, want, site.Name)
		}
		for _, pr := range g.Predecessors(t) {
			f := s.Tasks[pr].End
			if s.Tasks[pr].Cluster != pl.Cluster {
				f += opt.StageDelay
			}
			if f > pl.Start {
				return fmt.Errorf("multicluster: task %d starts at %d before predecessor %d is available at %d", t, pl.Start, pr, f)
			}
		}
		if pl.End > pl.Start {
			if err := avails[pl.Cluster].Reserve(pl.Start, pl.End, pl.Procs); err != nil {
				return fmt.Errorf("multicluster: task %d overcommits %q: %w", t, site.Name, err)
			}
		}
	}
	return nil
}
