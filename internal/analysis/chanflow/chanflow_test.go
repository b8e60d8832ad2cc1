package chanflow_test

import (
	"testing"

	"resched/internal/analysis/analysistest"
	"resched/internal/analysis/chanflow"
)

func TestChanFlow(t *testing.T) {
	// resbook first so its closes-contract facts are visible when the
	// server fixture (its importer) is judged; lifecycle is
	// independent.
	analysistest.Run(t, "testdata", chanflow.Analyzer,
		"resched/internal/resbook",
		"resched/internal/server",
		"resched/internal/lifecycle")
}
