// Command loginfo analyzes a batch workload log: Table 3-style
// statistics, a per-day utilization timeline, and the reservation
// schedule density that tagging a fraction of jobs would produce. It
// accepts real SWF logs or synthesizes one from an archetype.
//
// Examples:
//
//	loginfo -swf trace.swf
//	loginfo -arch SDSC_BLUE -days 45
//	loginfo -arch CTC_SP2 -phi 0.2
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"resched/internal/model"
	"resched/internal/tables"
	"resched/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "loginfo: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	swf := flag.String("swf", "", "workload log in SWF format")
	arch := flag.String("arch", "SDSC_DS", "archetype to synthesize (ignored with -swf)")
	days := flag.Int("days", 45, "synthetic log length in days")
	phi := flag.Float64("phi", 0.2, "tagging fraction for the reservation-density section")
	seed := flag.Int64("seed", 1, "random seed")
	width := flag.Int("width", 60, "timeline width in columns")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var lg *workload.Log
	var err error
	switch {
	case *swf != "":
		f, err2 := os.Open(*swf)
		if err2 != nil {
			return err2
		}
		defer f.Close()
		lg, err = workload.ParseSWF(f, *swf)
	default:
		a, err2 := workload.ByName(*arch)
		if err2 != nil {
			return err2
		}
		lg, err = workload.Synthesize(a, *days, rng)
	}
	if err != nil {
		return err
	}
	if err := lg.Validate(); err != nil {
		return fmt.Errorf("log fails validation: %w", err)
	}

	st, err := workload.ComputeStats(lg)
	if err != nil {
		return err
	}
	t := tables.New(fmt.Sprintf("log %q", lg.Name), "Metric", "Value")
	first, last := lg.Span()
	t.Addf("machine size [procs]", lg.Procs)
	t.Addf("jobs", st.Jobs)
	t.Addf("span [days]", float64(last-first)/float64(model.Day))
	t.Addf("utilization [%]", 100*st.Utilization)
	t.Addf("mean exec time [h]", st.MeanRunHours)
	t.Addf("CV exec (weekly means) [%]", st.CVRunPct)
	t.Addf("mean time-to-exec [h]", st.MeanToExecH)
	t.Addf("CV time-to-exec (weekly means) [%]", st.CVToExecPct)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	fmt.Println()
	if err := timeline(lg, *width); err != nil {
		return err
	}

	fmt.Println()
	return reservationDensity(lg, *phi, rng)
}

// timeline prints a per-column utilization band over the log's span.
func timeline(lg *workload.Log, width int) error {
	if width < 10 {
		width = 10
	}
	first, last := lg.Span()
	if last <= first {
		return fmt.Errorf("empty log span")
	}
	span := last - first
	util := make([]float64, width)
	colDur := float64(span) / float64(width)
	for _, j := range lg.Jobs {
		if j.Run == 0 {
			continue
		}
		lo := int(float64(j.Start()-first) / colDur)
		hi := int(float64(j.End()-1-first) / colDur)
		for c := lo; c <= hi && c < width; c++ {
			if c < 0 {
				continue
			}
			// Area contribution of this job to column c.
			cStart := first + model.Time(float64(c)*colDur)
			cEnd := first + model.Time(float64(c+1)*colDur)
			s, e := j.Start(), j.End()
			if s < cStart {
				s = cStart
			}
			if e > cEnd {
				e = cEnd
			}
			if e > s {
				util[c] += float64(j.Procs) * float64(e-s)
			}
		}
	}
	ramp := []byte(" .:-=+*#%@")
	row := make([]byte, width)
	for c := range row {
		frac := util[c] / (float64(lg.Procs) * colDur)
		idx := int(frac * float64(len(ramp)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ramp) {
			idx = len(ramp) - 1
		}
		row[c] = ramp[idx]
	}
	fmt.Printf("utilization over time (one column = %.1f h):\n|%s|\n",
		colDur/float64(model.Hour), string(row))
	return nil
}

// reservationDensity reports how many ongoing/future reservations each
// decay method yields at the middle of the log.
func reservationDensity(lg *workload.Log, phi float64, rng *rand.Rand) error {
	starts, err := workload.StartTimes(lg, 1, rng)
	if err != nil {
		// Short logs cannot host an observation point; not an error
		// for the tool's purpose.
		fmt.Printf("reservation density: log too short for an observation window\n")
		return nil
	}
	at := starts[0]
	t := tables.New(fmt.Sprintf("reservation schedule at t=%.1f days with phi=%.2f", float64(at)/float64(model.Day), phi),
		"Method", "Ongoing+future", "Past (7d window)")
	for _, m := range workload.AllMethods {
		ex, err := workload.Extract(lg, phi, m, at, rng)
		if err != nil {
			return err
		}
		past := 0
		for _, r := range ex.Past {
			if r.End > at-workload.HistWindow {
				past++
			}
		}
		t.Addf(m.String(), len(ex.Future), past)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	return nil
}
