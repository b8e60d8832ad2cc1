package atomicmix_test

import (
	"testing"

	"resched/internal/analysis/analysistest"
	"resched/internal/analysis/atomicmix"
)

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", atomicmix.Analyzer, "resched/internal/server")
}
