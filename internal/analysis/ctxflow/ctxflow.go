// Package ctxflow enforces the cancellation discipline from PR 1:
// every scheduling computation below the HTTP handler runs under the
// request's context, so a per-request timeout can actually bound the
// latency of a single scheduling request. Two ways to break that
// chain are flagged in the serving packages: minting a fresh root
// context (context.Background/context.TODO), and calling a scheduler
// entry point that has a *Ctx sibling — the non-Ctx form wraps
// context.Background internally and exists for the batch CLIs.
package ctxflow

import (
	"go/types"
	"strings"

	"resched/internal/analysis"
)

// corePackage is where the scheduling loops and their *Ctx siblings
// live.
const corePackage = "resched/internal/core"

// Analyzer flags context.Background/context.TODO and non-Ctx
// scheduling entry points inside analysis.ServingPackages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "serving code must thread the request context: no context.Background/TODO below " +
		"the handler, and scheduling loops with a *Ctx variant must be called through it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.ServingPackages[pass.Pkg.Path()] {
		return nil
	}
	for id, obj := range pass.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || pass.InTestFile(id.Pos()) {
			continue
		}
		switch fn.Pkg().Path() {
		case "context":
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				pass.Reportf(id.Pos(),
					"context.%s severs the request's cancellation chain; thread the request context instead",
					fn.Name())
			}
		case corePackage:
			if strings.HasSuffix(fn.Name(), "Ctx") {
				continue
			}
			sibling := fn.Name() + "Ctx"
			if named := analysis.ReceiverNamed(fn); named != nil && analysis.HasMethod(named, sibling) {
				pass.Reportf(id.Pos(),
					"%s wraps context.Background; serving code must call %s with the request context",
					fn.Name(), sibling)
			}
		}
	}
	return nil
}
