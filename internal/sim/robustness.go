package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"resched/internal/dynamic"
	"resched/internal/pessimism"
)

// PessimismResult aggregates the runtime-overestimation study over a
// scenario set: per factor, mean reserved and realized turnaround and
// the mean fraction of paid CPU-hours wasted.
type PessimismResult struct {
	Factors     []float64
	ReservedTAT []float64 // seconds
	RealizedTAT []float64 // seconds
	WastePct    []float64
	Instances   int
}

// RunPessimism evaluates the given overestimation factors on every
// instance of the scenarios.
func RunPessimism(lab *Lab, scenarios []Scenario, factors []float64) (*PessimismResult, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("sim: no factors")
	}
	res := &PessimismResult{
		Factors:     factors,
		ReservedTAT: make([]float64, len(factors)),
		RealizedTAT: make([]float64, len(factors)),
		WastePct:    make([]float64, len(factors)),
	}
	// One row per scenario, one entry per instance and factor, summed in
	// scenario order after the join (see RunExtensions).
	type cell struct{ reserved, realized, waste float64 }
	rows := make([][][]cell, len(scenarios))
	err := lab.forEachScenario(scenarios, func(i int, sc Scenario) error {
		insts, err := lab.Instances(sc)
		if err != nil {
			return err
		}
		rows[i] = make([][]cell, len(insts))
		for k, inst := range insts {
			rows[i][k] = make([]cell, len(factors))
			for fi, f := range factors {
				r, err := pessimism.Evaluate(inst.Sched.Graph(), inst.Env, f)
				if err != nil {
					return err
				}
				rows[i][k][fi] = cell{float64(r.ReservedTurnaround), float64(r.RealizedTurnaround), 100 * r.WasteFraction()}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range rows {
		for _, cells := range rs {
			for fi, c := range cells {
				res.ReservedTAT[fi] += c.reserved
				res.RealizedTAT[fi] += c.realized
				res.WastePct[fi] += c.waste
			}
			res.Instances++
		}
	}
	if res.Instances == 0 {
		return nil, fmt.Errorf("sim: no instances")
	}
	for fi := range factors {
		res.ReservedTAT[fi] /= float64(res.Instances)
		res.RealizedTAT[fi] /= float64(res.Instances)
		res.WastePct[fi] /= float64(res.Instances)
	}
	return res, nil
}

// DynamicSweepResult aggregates the changing-reservation-table study:
// per conflict strategy, the survival rate and the mean slowdown of
// survivors relative to the static plan.
type DynamicSweepResult struct {
	Strategies    []dynamic.Strategy
	SurvivalPct   []float64
	SlowdownPct   []float64 // mean over surviving runs
	MeanConflicts []float64
	Instances     int
}

// RunDynamic books every instance's plan against a live table with
// the given competitor pressure, once per strategy.
func RunDynamic(lab *Lab, scenarios []Scenario, rate float64) (*DynamicSweepResult, error) {
	strategies := []dynamic.Strategy{dynamic.Naive, dynamic.Rebook, dynamic.Replan}
	res := &DynamicSweepResult{
		Strategies:    strategies,
		SurvivalPct:   make([]float64, len(strategies)),
		SlowdownPct:   make([]float64, len(strategies)),
		MeanConflicts: make([]float64, len(strategies)),
	}
	// One row per scenario, one entry per instance and strategy, summed
	// in scenario order after the join (see RunExtensions).
	type cell struct {
		survived            bool
		slowdown, conflicts float64
	}
	rows := make([][][]cell, len(scenarios))
	err := lab.forEachScenario(scenarios, func(i int, sc Scenario) error {
		insts, err := lab.Instances(sc)
		if err != nil {
			return err
		}
		rows[i] = make([][]cell, len(insts))
		for ii, inst := range insts {
			rows[i][ii] = make([]cell, len(strategies))
			comp := dynamic.DefaultCompetitor(inst.Env.P)
			comp.Rate = rate
			for si, strat := range strategies {
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%d/%v", sc, ii, strat)
				rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
				r, err := dynamic.Run(inst.Sched.Graph(), inst.Env, comp, strat, rng)
				if errors.Is(err, dynamic.ErrConflict) {
					continue
				}
				if err != nil {
					return err
				}
				rows[i][ii][si] = cell{true, 100 * (float64(r.Schedule.Turnaround())/float64(r.PlannedTurnaround) - 1), float64(r.Conflicts)}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	survived := make([]int, len(strategies))
	for _, rs := range rows {
		for _, cells := range rs {
			for si, c := range cells {
				if !c.survived {
					continue
				}
				survived[si]++
				res.SlowdownPct[si] += c.slowdown
				res.MeanConflicts[si] += c.conflicts
			}
			res.Instances++
		}
	}
	if res.Instances == 0 {
		return nil, fmt.Errorf("sim: no instances")
	}
	for si := range strategies {
		res.SurvivalPct[si] = 100 * float64(survived[si]) / float64(res.Instances)
		if survived[si] > 0 {
			res.SlowdownPct[si] /= float64(survived[si])
			res.MeanConflicts[si] /= float64(survived[si])
		}
	}
	return res, nil
}
