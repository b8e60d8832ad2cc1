package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA measures how well the benchmark repeats: every workload (or
// just opt.workload) is run in two sets, A and B, of n runs of the same
// code on seeds opt.seed … opt.seed+n-1, interleaved A B B A so that
// drift of the host hits both alike. Each run is a fresh process, as
// the driver makes them. For every end-to-end metric it prints both
// medians, their gap and each set's quartile spread beside the bound,
// and returns 1 when a gap exceeds the bound. The spreads are there to
// be read: the driver holds them to the bound too, but over ten runs,
// and the quartiles of five are close to their extremes.
func runAA(n int, opt options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	status := 0
	fmt.Printf("%-19s %-18s %12s %12s %7s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "gap %", "iqr A %", "iqr B %", "bound %")
	for _, spec := range workloads {
		if opt.workload != "" && opt.workload != spec.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, set := range order {
				res, err := runChild(exe, spec.name, opt.seed+int64(i), opt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", spec.name, opt.seed+int64(i), err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n",
						spec.name, opt.seed+int64(i), res.Failed, res.Attempted)
					status = 1
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			gap := math.Abs(mb-ma) / ma * 100
			sa, sb := iqrShare(a)*100, iqrShare(b)*100
			verdict := ""
			if gap > d.Bound*100 {
				verdict = "  EXCEEDS"
				status = 1
			}
			fmt.Printf("%-19s %-18s %12.6g %12.6g %7.3f %8.3f %8.3f %6.1f%s\n",
				spec.name, d.Name, ma, mb, gap, sa, sb, d.Bound*100, verdict)
		}
	}
	return status
}

// runChild runs one measurement in a child process and parses the
// result from the last line of its output.
func runChild(exe, workload string, seed int64, opt options) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parsing result: %w", err)
	}
	return res, nil
}

// iqrShare is the distance between the first and third quartile of xs
// as a share of their median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the driver's rule).
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / median(s)
}
