package sim

import (
	"reflect"
	"testing"
)

// TestDriversIndependentOfWorkers runs the drivers that reduce over
// instances — extensions, pessimism and the dynamic sweep — at 1, 2
// and 3 workers over two scenarios and requires identical results.
// Under -race (make race) the multi-worker runs also show that the
// scenario callbacks share no accumulator.
func TestDriversIndependentOfWorkers(t *testing.T) {
	scenarios := tinyScenarios()[:2]
	run := func(workers int) []any {
		cfg := tinyConfig()
		cfg.Workers = workers
		lab := NewLab(cfg)
		ext, err := RunExtensions(lab, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		pess, err := RunPessimism(lab, scenarios, []float64{1, 1.5})
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := RunDynamic(lab, scenarios, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return []any{ext, pess, dyn}
	}
	want := run(1)
	if got := want[0].(*ExtensionsResult).Instances; got != 8 {
		t.Fatalf("extensions over two scenarios: %d instances, want 8", got)
	}
	for _, workers := range []int{2, 3} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers=%d: results differ from Workers=1:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
