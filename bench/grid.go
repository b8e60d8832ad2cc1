package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"resched/internal/core"
	"resched/internal/cpa"
	"resched/internal/dag"
	"resched/internal/daggen"
	"resched/internal/model"
	"resched/internal/sim"
	"resched/internal/workload"
)

// gridSpecs indexes daggen.ParamGrid(): the ends of the task-count
// sweep and one extreme of each other parameter (n=10, 25, 100;
// alpha=0.05; width 0.1 and 0.9; density 0.9; jump 4).
var gridSpecs = []int{0, 1, 4, 5, 9, 17, 26, 39}

// gridInstance is one problem of the paper's evaluation: an
// application and the reservation schedule it must work around.
type gridInstance struct {
	g   *dag.Graph
	env core.Env
}

// gridOutput is what evaluating one instance produced.
type gridOutput struct {
	forward  [3]*core.Schedule // BL_CPAR with BD_ALL, BD_CPA, BD_CPAR
	tightest model.Time
	tight    *core.Schedule
	deadline model.Time
	backward [2]*core.Schedule // DL_BD_CPAR, DL_RC_CPAR-λ; nil when infeasible
}

var (
	gridBounds    = [3]core.BDMethod{core.BDAll, core.BDCPA, core.BDCPAR}
	gridDeadlines = [2]core.DLAlgorithm{core.DLBDCPAR, core.DLRCCPARLambda}
)

// gridWorkload evaluates problem instances the way the paper's tables
// do, with no server and no book: every call lands on core, cpa and the
// flat profile.
type gridWorkload struct {
	insts     []gridInstance
	kept      []gridOutput
	synthTime time.Duration
	instTime  time.Duration
}

// newGridOffline materializes one instance per scenario of
// 8 specs × (4 batch logs × φ∈{0.1,0.5} × {linear,real} + Grid'5000)
// from 45-day logs. The seed moves each one's scheduling time by up to
// jitter seconds.
func newGridOffline(seed int64, scale float64) (runner, error) {
	draw := rand.New(rand.NewSource(seed))
	grid := daggen.ParamGrid()
	var specs []daggen.Spec
	for _, i := range gridSpecs {
		specs = append(specs, grid[i])
	}
	scenarios := sim.SynthScenarios(specs, workload.BatchArchetypes, []float64{0.1, 0.5},
		[]workload.Method{workload.Linear, workload.Real})
	scenarios = append(scenarios, sim.Grid5000Scenarios(specs)...)
	days := 45
	if scale < 1 {
		// A small run keeps every fourth-or-so scenario and shorter logs.
		keep := max(4, int(float64(len(scenarios))*scale))
		stride := len(scenarios) / keep
		var few []sim.Scenario
		for i := 0; i < len(scenarios) && len(few) < keep; i += stride {
			few = append(few, scenarios[i])
		}
		scenarios = few
		days = 21
	}

	lab := sim.NewLab(sim.Config{LogDays: days, DAGReps: 1, StartTimes: 1, Taggings: 1, Seed: masterSeed, Workers: 1})
	w := &gridWorkload{}
	t0 := time.Now()
	for _, arch := range append(append([]workload.Archetype(nil), workload.BatchArchetypes...), workload.Grid5000) {
		if _, err := lab.Log(arch); err != nil {
			return nil, err
		}
	}
	w.synthTime = time.Since(t0)
	t0 = time.Now()
	for _, sc := range scenarios {
		insts, err := lab.Instances(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc, err)
		}
		for _, in := range insts {
			env := in.Env
			env.Now += draw.Int63n(int64(jitter))
			w.insts = append(w.insts, gridInstance{g: in.Sched.Graph(), env: env})
		}
	}
	w.instTime = time.Since(t0)
	return w, nil
}

func (w *gridWorkload) ops() int { return len(w.insts) }

// evaluate runs one instance through the paper's pipeline on a fresh
// scheduler: three forward heuristics, the tightest-deadline search,
// and two deadline algorithms at 1.5× the tightest deadline. tr, when
// set, gets a span per call. An infeasible deadline is a result, not a
// failure.
func (w *gridWorkload) evaluate(in *gridInstance, tr *tracer) (gridOutput, error) {
	var out gridOutput
	tr.begin("core.new_scheduler")
	sch, err := core.NewScheduler(in.g)
	tr.end()
	if err != nil {
		return out, err
	}
	for i, bd := range gridBounds {
		tr.begin("core.turnaround")
		out.forward[i], err = sch.Turnaround(in.env, core.BLCPAR, bd)
		tr.end()
		if err != nil {
			return out, err
		}
	}
	tr.begin("core.tightest")
	out.tightest, out.tight, err = sch.TightestDeadline(in.env, core.DLRCCPAR)
	tr.end()
	if err != nil {
		return out, err
	}
	out.deadline = in.env.Now + model.Duration(sim.LooseFactor*float64(out.tightest-in.env.Now))
	for i, algo := range gridDeadlines {
		tr.begin("core.deadline")
		out.backward[i], err = sch.Deadline(in.env, algo, out.deadline)
		tr.end()
		if err != nil && !errors.Is(err, core.ErrInfeasible) {
			return out, err
		}
	}
	return out, nil
}

func (w *gridWorkload) round(lat []time.Duration, keep bool) (roundOutcome, error) {
	var res roundOutcome
	if keep {
		w.kept = w.kept[:0]
	}
	h := newChecksum()
	begin := time.Now()
	for i := range w.insts {
		t0 := time.Now()
		out, err := w.evaluate(&w.insts[i], nil)
		lat[i] = time.Since(t0)
		if err != nil {
			res.failed++
			out = gridOutput{}
		}
		h.word(uint64(out.tightest))
		for _, s := range [...]*core.Schedule{out.forward[0], out.forward[1], out.forward[2], out.tight, out.backward[0], out.backward[1]} {
			if s == nil {
				h.word(0)
				continue
			}
			h.schedule(s.Turnaround(), s.CPUHours(), len(s.Tasks), func(t int) (int, model.Time, model.Time) {
				return s.Tasks[t].Procs, s.Tasks[t].Start, s.Tasks[t].End
			})
		}
		if keep {
			w.kept = append(w.kept, out)
		}
	}
	res.wall = time.Since(begin)
	res.sum = h.sum()
	return res, nil
}

// check verifies every kept schedule: forward ones with Verify, the
// tightest and the deadline ones with VerifyDeadline.
func (w *gridWorkload) check() (int, error) {
	wrong := 0
	for i, out := range w.kept {
		if out.tight == nil {
			continue // a failed operation, already counted by round
		}
		in := &w.insts[i]
		sch, err := core.NewScheduler(in.g)
		if err != nil {
			return 0, err
		}
		bad := sch.VerifyDeadline(in.env, out.tight, out.tightest) != nil
		for _, s := range out.forward {
			bad = bad || sch.Verify(in.env, s) != nil
		}
		for _, s := range out.backward {
			bad = bad || (s != nil && sch.VerifyDeadline(in.env, s, out.deadline) != nil)
		}
		if bad {
			wrong++
		}
	}
	return wrong, nil
}

// settle has nothing to check: no state survives an operation.
func (w *gridWorkload) settle() error { return nil }

func (w *gridWorkload) traced(tr *tracer) (int, error) {
	failed := 0
	for i := range w.insts {
		in := &w.insts[i]
		tr.op = int32(i)
		tr.begin("op")
		_, err := w.evaluate(in, tr)
		tr.end()
		if err != nil {
			failed++
			continue
		}
		// The scheduler computes one CPA allocation for q and one for p,
		// both inside its first Turnaround calls; time the same two here.
		tr.begin("staged")
		for _, procs := range cpaSizes(in.env) {
			tr.begin("cpa.allocate")
			_, err := cpa.Allocate(in.g, procs, cpa.StopStringent)
			tr.end()
			if err != nil {
				return 0, err
			}
		}
		tr.end()
	}
	return failed, nil
}

// cpaSizes lists the cluster sizes a scheduler allocates for in env:
// the historical average q and, when different, the machine size p.
func cpaSizes(env core.Env) []int {
	q := env.Q
	if q == 0 {
		q = env.P
	}
	if q == env.P {
		return []int{q}
	}
	return []int{q, env.P}
}

// quality averages the BD_CPAR schedules, the paper's best heuristic.
func (w *gridWorkload) quality() (float64, float64) {
	var turn, cpuh float64
	n := 0
	for _, out := range w.kept {
		if s := out.forward[2]; s != nil {
			turn += float64(s.Turnaround())
			cpuh += s.CPUHours()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return turn / float64(n), cpuh / float64(n)
}

func (w *gridWorkload) layers(m map[string]float64) {
	m["workload.synthesize_s"] = w.synthTime.Seconds()
	m["sim.instances_s"] = w.instTime.Seconds()
	segs := 0
	for _, in := range w.insts {
		segs += in.env.Avail.NumSegments()
	}
	m["profile.segments"] = float64(segs) / float64(len(w.insts))
}

func (w *gridWorkload) probes() []probeTarget {
	var out []probeTarget
	for _, in := range w.insts {
		out = append(out, probeTarget{avail: in.env.Avail, now: in.env.Now})
	}
	return out
}
