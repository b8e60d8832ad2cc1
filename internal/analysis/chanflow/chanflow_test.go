package chanflow_test

import (
	"testing"

	"resched/internal/analysis/analysistest"
	"resched/internal/analysis/chanflow"
)

func TestChanFlow(t *testing.T) {
	analysistest.Run(t, "testdata", chanflow.Analyzer, "resched/internal/lifecycle")
}
