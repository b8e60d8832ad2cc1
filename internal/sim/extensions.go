package sim

import (
	"fmt"

	"resched/internal/core"
	"resched/internal/onestep"
	"resched/internal/probe"
)

// ExtensionsResult compares the library's extensions against the
// paper's best RESSCHED heuristic on the same instances: the one-step
// allocate-and-map scheduler and the blind (probe-based) scheduler.
type ExtensionsResult struct {
	// Mean turnaround seconds per scheduler.
	TurnBDCPAR, TurnOneStep, TurnBlind float64
	// Mean CPU-hours per scheduler.
	CPUBDCPAR, CPUOneStep, CPUBlind float64
	// MeanProbes is the blind scheduler's average probe count.
	MeanProbes float64
	Instances  int
}

// RunExtensions schedules every instance of the scenarios with
// BD_CPAR (full knowledge), the one-step scheduler, and the blind
// scheduler, and reports mean turnaround and CPU-hours for each.
func RunExtensions(lab *Lab, scenarios []Scenario) (*ExtensionsResult, error) {
	// Each scenario fills its own row of per-instance results; the rows
	// are summed in scenario order after the join, so the means do not
	// depend on the worker count.
	type row struct {
		turn, cpu [3]float64
		probes    float64
	}
	rows := make([][]row, len(scenarios))
	err := lab.forEachScenario(scenarios, func(i int, sc Scenario) error {
		insts, err := lab.Instances(sc)
		if err != nil {
			return err
		}
		rows[i] = make([]row, len(insts))
		for k, inst := range insts {
			base, err := inst.Sched.Turnaround(inst.Env, core.BLCPAR, core.BDCPAR)
			if err != nil {
				return err
			}
			one, err := onestep.Schedule(inst.Sched.Graph(), inst.Env, onestep.Options{})
			if err != nil {
				return err
			}
			bs := probe.NewSimulatedBatch(inst.Env.Avail, inst.Env.Now)
			blind, err := probe.Schedule(inst.Sched.Graph(), bs, probe.Options{Q: inst.Env.Q})
			if err != nil {
				return err
			}
			// Every scheduler's output must verify against the true
			// environment; a broken extension must fail loudly here.
			for name, s := range map[string]*core.Schedule{
				"BD_CPAR": base, "one-step": one.Schedule, "blind": blind.Schedule,
			} {
				if err := inst.Sched.Verify(inst.Env, s); err != nil {
					return fmt.Errorf("%s schedule invalid: %w", name, err)
				}
			}
			rows[i][k] = row{
				turn:   [3]float64{float64(base.Turnaround()), float64(one.Schedule.Turnaround()), float64(blind.Schedule.Turnaround())},
				cpu:    [3]float64{base.CPUHours(), one.Schedule.CPUHours(), blind.Schedule.CPUHours()},
				probes: float64(blind.Probes),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &ExtensionsResult{}
	for _, rs := range rows {
		for _, r := range rs {
			res.TurnBDCPAR += r.turn[0]
			res.TurnOneStep += r.turn[1]
			res.TurnBlind += r.turn[2]
			res.CPUBDCPAR += r.cpu[0]
			res.CPUOneStep += r.cpu[1]
			res.CPUBlind += r.cpu[2]
			res.MeanProbes += r.probes
			res.Instances++
		}
	}
	if res.Instances == 0 {
		return nil, fmt.Errorf("sim: no instances")
	}
	n := float64(res.Instances)
	res.TurnBDCPAR /= n
	res.TurnOneStep /= n
	res.TurnBlind /= n
	res.CPUBDCPAR /= n
	res.CPUOneStep /= n
	res.CPUBlind /= n
	res.MeanProbes /= n
	return res, nil
}
