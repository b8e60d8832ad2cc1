package workload

import (
	"fmt"
	"math"
	"math/rand"

	"resched/internal/model"
	"resched/internal/profile"
)

// Archetype describes a synthetic workload calibrated to one of the
// paper's traces (Tables 2 and 3). Jobs arrive as a Poisson process
// with a daily cycle; runtimes are lognormal; widths are biased toward
// powers of two, as in the archive logs. Start times come from FCFS
// packing against the machine's availability, which guarantees the log
// is capacity-feasible — the property reservation extraction needs.
type Archetype struct {
	Name string
	// Procs is the machine size (#CPUs column of Table 2).
	Procs int
	// TargetUtil is the offered load as a fraction of capacity (the
	// Avg. Utilization column of Table 2). Achieved utilization tracks
	// it approximately.
	TargetUtil float64
	// MeanRun is the mean job execution time (Table 3).
	MeanRun model.Duration
	// SigmaRun is the lognormal shape parameter of runtimes.
	SigmaRun float64
	// MaxJobProcs caps individual job widths.
	MaxJobProcs int
	// MeanLead, when positive, marks a reservation-style log
	// (Grid'5000): jobs book MeanLead in advance on average, and start
	// no earlier than their booked time.
	MeanLead model.Duration
}

// The four batch logs of Table 2 plus the Grid'5000 reservation log of
// Table 3, with machine sizes and utilizations from Table 2 and mean
// execution / lead times from Table 3.
var (
	CTCSP2     = Archetype{Name: "CTC_SP2", Procs: 430, TargetUtil: 0.658, MeanRun: model.Duration(3.20 * float64(model.Hour)), SigmaRun: 1.5, MaxJobProcs: 128}
	OSCCluster = Archetype{Name: "OSC_Cluster", Procs: 57, TargetUtil: 0.385, MeanRun: model.Duration(9.33 * float64(model.Hour)), SigmaRun: 1.4, MaxJobProcs: 32}
	SDSCBlue   = Archetype{Name: "SDSC_BLUE", Procs: 1152, TargetUtil: 0.757, MeanRun: model.Duration(1.18 * float64(model.Hour)), SigmaRun: 1.5, MaxJobProcs: 512}
	SDSCDS     = Archetype{Name: "SDSC_DS", Procs: 224, TargetUtil: 0.273, MeanRun: model.Duration(1.52 * float64(model.Hour)), SigmaRun: 1.5, MaxJobProcs: 64}
	Grid5000   = Archetype{Name: "Grid5000", Procs: 256, TargetUtil: 0.45, MeanRun: model.Duration(1.84 * float64(model.Hour)), SigmaRun: 1.4, MaxJobProcs: 64, MeanLead: model.Duration(3.24 * float64(model.Hour))}
)

// BatchArchetypes lists the four Table 2 logs in paper order.
var BatchArchetypes = []Archetype{CTCSP2, OSCCluster, SDSCBlue, SDSCDS}

// ByName returns the archetype with the given name (case-sensitive).
func ByName(name string) (Archetype, error) {
	for _, a := range append(append([]Archetype{}, BatchArchetypes...), Grid5000) {
		if a.Name == name {
			return a, nil
		}
	}
	return Archetype{}, fmt.Errorf("workload: unknown archetype %q", name)
}

// Validate checks the archetype parameters.
func (a Archetype) Validate() error {
	switch {
	case a.Procs < 1:
		return fmt.Errorf("workload: archetype %q: machine size %d < 1", a.Name, a.Procs)
	case a.TargetUtil <= 0 || a.TargetUtil >= 1:
		return fmt.Errorf("workload: archetype %q: utilization %v outside (0,1)", a.Name, a.TargetUtil)
	case a.MeanRun < model.Minute:
		return fmt.Errorf("workload: archetype %q: mean run %d too small", a.Name, a.MeanRun)
	case a.SigmaRun <= 0 || a.SigmaRun > 3:
		return fmt.Errorf("workload: archetype %q: sigma %v outside (0,3]", a.Name, a.SigmaRun)
	case a.MaxJobProcs < 1 || a.MaxJobProcs > a.Procs:
		return fmt.Errorf("workload: archetype %q: max job width %d outside [1,%d]", a.Name, a.MaxJobProcs, a.Procs)
	case a.MeanLead < 0:
		return fmt.Errorf("workload: archetype %q: negative mean lead", a.Name)
	}
	return nil
}

// minRun and maxRun clamp synthetic job runtimes.
const (
	minRun model.Duration = model.Minute
	maxRun model.Duration = 3 * model.Day
)

// Synthesize generates a log of the given length. Deterministic for a
// given (archetype, days, rng state).
func Synthesize(a Archetype, days int, rng *rand.Rand) (*Log, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if days < 1 {
		return nil, fmt.Errorf("workload: log length %d days < 1", days)
	}
	horizon := model.Time(days) * model.Day

	// Expected per-job resource demand, for calibrating the arrival
	// rate to the target utilization. Estimated empirically from a
	// fixed-seed pilot sample so runtime clamping and width truncation
	// are accounted for.
	demand := a.expectedJobDemand()
	baseRate := a.TargetUtil * float64(a.Procs) / demand // jobs per second

	lg := &Log{Name: a.Name, Procs: a.Procs}
	machine := profile.New(a.Procs, 0)
	var t model.Time
	id := 1
	for {
		// Non-homogeneous Poisson arrivals via thinning: candidate
		// arrivals at 1.5x the base rate, accepted with probability
		// cycle/1.5 where the daily cycle modulates the rate by 1±0.5,
		// preserving the base rate on average.
		gap := model.Duration(rng.ExpFloat64() / (1.5 * baseRate))
		if gap < 1 {
			gap = 1
		}
		t += gap
		if t >= horizon {
			break
		}
		cycle := 1 + 0.5*math.Sin(2*math.Pi*float64(t%model.Day)/float64(model.Day))
		if rng.Float64() > cycle/1.5 {
			continue // thinned out
		}
		job := Job{
			ID:     id,
			Submit: t,
			Run:    a.drawRun(rng),
			Procs:  a.drawProcs(rng),
		}
		earliest := job.Submit
		if a.MeanLead > 0 {
			earliest += model.Duration(rng.ExpFloat64() * float64(a.MeanLead))
		}
		start := machine.EarliestFit(job.Procs, job.Run, earliest)
		if err := machine.Reserve(start, start+job.Run, job.Procs); err != nil {
			return nil, fmt.Errorf("workload: packing job %d: %w", id, err)
		}
		job.Wait = start - job.Submit
		lg.Jobs = append(lg.Jobs, job)
		id++
	}
	if len(lg.Jobs) == 0 {
		return nil, fmt.Errorf("workload: archetype %q produced no jobs in %d days", a.Name, days)
	}
	return lg, nil
}

// drawRun draws a lognormal runtime with mean MeanRun, clamped to
// [minRun, maxRun].
func (a Archetype) drawRun(rng *rand.Rand) model.Duration {
	mu := math.Log(float64(a.MeanRun)) - a.SigmaRun*a.SigmaRun/2
	r := model.Duration(math.Exp(mu + a.SigmaRun*rng.NormFloat64()))
	if r < minRun {
		r = minRun
	}
	if r > maxRun {
		r = maxRun
	}
	return r
}

// drawProcs draws a job width biased toward powers of two, as observed
// throughout the Parallel Workloads Archive.
func (a Archetype) drawProcs(rng *rand.Rand) int {
	var procs int
	if rng.Float64() < 0.75 {
		// Power of two: 2^k with geometrically decaying k.
		k := 0
		for rng.Float64() < 0.55 && (1<<(k+1)) <= a.MaxJobProcs {
			k++
		}
		procs = 1 << k
	} else {
		procs = rng.Intn(a.MaxJobProcs) + 1
	}
	if procs > a.MaxJobProcs {
		procs = a.MaxJobProcs
	}
	return procs
}

// expectedJobProcs estimates the mean job width of drawProcs
// analytically (used by tests as a cross-check of the sampler).
func (a Archetype) expectedJobProcs() float64 {
	// Power-of-two branch: E[2^k], k geometric(p=0.55) truncated.
	var e2 float64
	p := 1.0
	for k := 0; (1 << k) <= a.MaxJobProcs; k++ {
		cont := 0.55
		if (1 << (k + 1)) > a.MaxJobProcs {
			cont = 0
		}
		e2 += p * (1 - cont) * float64(int(1)<<k)
		p *= 0.55
	}
	uniform := float64(a.MaxJobProcs+1) / 2
	return 0.75*e2 + 0.25*uniform
}

// expectedJobDemand estimates the mean processor-seconds per job by
// drawing a fixed-seed pilot sample through the same samplers used for
// generation, so clamping effects are priced in. Deterministic.
func (a Archetype) expectedJobDemand() float64 {
	pilot := rand.New(rand.NewSource(1))
	const n = 20000
	var runSum, procSum float64
	for i := 0; i < n; i++ {
		runSum += float64(a.drawRun(pilot))
		procSum += float64(a.drawProcs(pilot))
	}
	return (runSum / n) * (procSum / n)
}
