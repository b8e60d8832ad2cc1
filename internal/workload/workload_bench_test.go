package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"resched/internal/model"
)

// BenchmarkSynthesize measures log generation cost per archetype —
// the one-time setup cost every experiment pays per log.
func BenchmarkSynthesize(b *testing.B) {
	for _, a := range []Archetype{SDSCDS, SDSCBlue} {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Synthesize(a, 30, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtract measures reservation-schedule extraction per decay
// method, the per-instance cost of the experiment harness.
func BenchmarkExtract(b *testing.B) {
	lg, err := Synthesize(SDSCDS, 30, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	at := model.Time(14 * model.Day)
	for _, m := range AllMethods {
		b.Run(fmt.Sprintf("%v", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < b.N; i++ {
				if _, err := Extract(lg, 0.2, m, at, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
