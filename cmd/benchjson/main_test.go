package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: resched/internal/cpa
BenchmarkAllocate/p=32/stringent-1         	    7918	    150000 ns/op	   45000 B/op	      23 allocs/op
BenchmarkAllocate/p=32/stringent-1         	    7918	    180000 ns/op	   45000 B/op	      23 allocs/op
BenchmarkAllocate/p=32/stringent-1         	    7918	    165000 ns/op	   45000 B/op	      23 allocs/op
BenchmarkSingle-1                          	     100	   1000000 ns/op	  500 sched/s/core
PASS
pkg: resched/internal/server
BenchmarkAllocate/p=32/stringent-1         	     300	    900000 ns/op
PASS
`

func parseString(t *testing.T, s string) map[string]Result {
	t.Helper()
	out, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseKeepsFastestAndSpread(t *testing.T) {
	out := parseString(t, sampleOutput)

	res, ok := out["internal/cpa.BenchmarkAllocate/p=32/stringent"]
	if !ok {
		t.Fatalf("missing package-qualified benchmark, got %v", keys(out))
	}
	if res.NsOp != 150000 {
		t.Errorf("NsOp = %v, want the fastest repetition 150000", res.NsOp)
	}
	// Samples 150000/165000/180000: median 165000 -> spread 10%.
	if math.Abs(res.NsSpreadPct-10) > 1e-9 {
		t.Errorf("NsSpreadPct = %v, want 10", res.NsSpreadPct)
	}
	if res.AllocsOp != 23 {
		t.Errorf("AllocsOp = %v, want 23", res.AllocsOp)
	}

	// Same benchmark name in a different package must not collide.
	if res := out["internal/server.BenchmarkAllocate/p=32/stringent"]; res.NsOp != 900000 {
		t.Errorf("server package NsOp = %v, want 900000", res.NsOp)
	}

	// A single repetition has no spread, and custom units land in
	// Metrics.
	single := out["internal/cpa.BenchmarkSingle"]
	if single.NsSpreadPct != 0 {
		t.Errorf("single-rep NsSpreadPct = %v, want 0", single.NsSpreadPct)
	}
	if single.Metrics["sched/s/core"] != 500 {
		t.Errorf("Metrics = %v, want sched/s/core 500", single.Metrics)
	}
}

func keys(m map[string]Result) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// writeBenchFile marshals one run under the "optimized" label.
func writeBenchFile(t *testing.T, dir, name string, results map[string]Result) string {
	t.Helper()
	f := File{Format: "resched-bench/v1", Runs: map[string]map[string]Result{"optimized": results}}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGateSlack drives the compare subcommand end to end: a
// regression over the threshold fails only when it also clears the
// new run's repetition spread, and the slack is capped at twice the
// threshold.
func TestCompareGateSlack(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchFile(t, dir, "old.json", map[string]Result{
		"a.BenchmarkStable":  {Iterations: 1, NsOp: 1000},
		"a.BenchmarkJittery": {Iterations: 1, NsOp: 1000},
	})
	cases := []struct {
		name     string
		newRes   map[string]Result
		wantFail string // substring of the error, empty for pass
	}{
		{
			name: "regression beyond threshold with no spread fails",
			newRes: map[string]Result{
				"a.BenchmarkStable":  {Iterations: 1, NsOp: 1200},
				"a.BenchmarkJittery": {Iterations: 1, NsOp: 900},
			},
			wantFail: "a.BenchmarkStable",
		},
		{
			name: "same regression inside the run's own jitter passes",
			newRes: map[string]Result{
				"a.BenchmarkStable":  {Iterations: 1, NsOp: 1200, NsSpreadPct: 8},
				"a.BenchmarkJittery": {Iterations: 1, NsOp: 900},
			},
		},
		{
			name: "slack is capped at twice the threshold",
			newRes: map[string]Result{
				"a.BenchmarkStable":  {Iterations: 1, NsOp: 1000},
				"a.BenchmarkJittery": {Iterations: 1, NsOp: 1500, NsSpreadPct: 90},
			},
			wantFail: "a.BenchmarkJittery",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBenchFile(t, dir, "new.json", tc.newRes)
			err := runCompare([]string{"-threshold", "15", old, newPath})
			if tc.wantFail == "" {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantFail) {
				t.Fatalf("want failure mentioning %q, got %v", tc.wantFail, err)
			}
		})
	}
}

// TestCompareGatesAllocations: the gate sees allocs/op. The PR 9 ->
// PR 10 SchedulePost jump, which passed a gate that only printed it,
// now fails and is named as an allocation failure (its ns/op held);
// one allocation becoming two is +100 % and passes; an ungated
// benchmark may allocate what it likes.
func TestCompareGatesAllocations(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchFile(t, dir, "old.json", map[string]Result{
		"internal/server.BenchmarkSchedulePost": {Iterations: 1, NsOp: 702_000, AllocsOp: 143},
		"a.BenchmarkTiny":                       {Iterations: 1, NsOp: 100, AllocsOp: 1},
		"a.BenchmarkFree":                       {Iterations: 1, NsOp: 100},
		"b.BenchmarkUngated":                    {Iterations: 1, NsOp: 100, AllocsOp: 10},
	})
	cases := []struct {
		name     string
		newRes   map[string]Result
		wantFail string // the whole error must carry this, empty for pass
		notIn    string // and must not carry this
	}{
		{
			name: "PR 9 to PR 10 fails on allocations alone",
			newRes: map[string]Result{
				"internal/server.BenchmarkSchedulePost": {Iterations: 1, NsOp: 716_000, AllocsOp: 1619},
				"a.BenchmarkTiny":                       {Iterations: 1, NsOp: 100, AllocsOp: 1},
			},
			wantFail: "internal/server.BenchmarkSchedulePost (allocs/op)",
			notIn:    "ns/op",
		},
		{
			name: "one allocation to two passes, as does an ungated rise",
			newRes: map[string]Result{
				"internal/server.BenchmarkSchedulePost": {Iterations: 1, NsOp: 702_000, AllocsOp: 160},
				"a.BenchmarkTiny":                       {Iterations: 1, NsOp: 100, AllocsOp: 2},
				"b.BenchmarkUngated":                    {Iterations: 1, NsOp: 100, AllocsOp: 500},
			},
		},
		{
			name: "repetition spread excuses ns/op but buys allocations no slack",
			newRes: map[string]Result{
				"internal/server.BenchmarkSchedulePost": {Iterations: 1, NsOp: 850_000, AllocsOp: 170, NsSpreadPct: 20},
			},
			wantFail: "internal/server.BenchmarkSchedulePost (allocs/op)",
			notIn:    "ns/op",
		},
		{
			name: "both counts are named when both trip",
			newRes: map[string]Result{
				"internal/server.BenchmarkSchedulePost": {Iterations: 1, NsOp: 1_400_000, AllocsOp: 170},
			},
			wantFail: "internal/server.BenchmarkSchedulePost (ns/op, allocs/op)",
		},
		{
			name: "a zero-allocation benchmark that starts allocating fails",
			newRes: map[string]Result{
				"a.BenchmarkFree": {Iterations: 1, NsOp: 100, AllocsOp: 2},
			},
			wantFail: "a.BenchmarkFree (allocs/op)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeBenchFile(t, dir, "new.json", tc.newRes)
			err := runCompare([]string{"-threshold", "15", "-gate", "internal/server.,a.", old, newPath})
			if tc.wantFail == "" {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantFail) {
				t.Fatalf("want failure mentioning %q, got %v", tc.wantFail, err)
			}
			if tc.notIn != "" && strings.Contains(err.Error(), tc.notIn) {
				t.Fatalf("failure %q should not mention %q", err, tc.notIn)
			}
		})
	}
}
