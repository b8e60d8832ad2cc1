package wgleak_test

import (
	"testing"

	"resched/internal/analysis/analysistest"
	"resched/internal/analysis/wgleak"
)

func TestWgLeak(t *testing.T) {
	// workerlib is pulled in as an import of the server fixture and
	// analyzed for facts only; the launch sites under test are in the
	// server and lifecycle packages.
	analysistest.Run(t, "testdata", wgleak.Analyzer,
		"resched/internal/server", "resched/internal/lifecycle")
}
