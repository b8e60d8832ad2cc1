// Command reschedvet is the repo's domain-aware multichecker: it runs
// the internal/analysis analyzers — refguard, ctxflow, modeexhaustive,
// errdrop and wgleak on the serving and scheduling code,
// lockhold and guardedby on its locks, atomicmix on its atomics and
// chanflow on its select loops — over
// the given packages (default ./...) and exits non-zero if any finding
// survives. Each one earned its place by killing a seeded fault that
// tests, -race and go vet miss (`make mutants`, DESIGN.md §20). Each
// finding prints as
//
//	path/to/file.go:line:col: message (analyzer)
//
// or, with -json, as a SARIF-lite document on stdout.
//
// Exit codes: 0 clean, 1 findings, 2 the packages could not be loaded
// or analysis itself failed. `make lint` runs it as part of `make ci`.
// Suppress a finding with a //reschedvet:ignore comment; see
// internal/analysis. An ignore naming no analyzer is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"resched/internal/analysis"
	"resched/internal/analysis/atomicmix"
	"resched/internal/analysis/chanflow"
	"resched/internal/analysis/ctxflow"
	"resched/internal/analysis/errdrop"
	"resched/internal/analysis/guardedby"
	"resched/internal/analysis/lockhold"
	"resched/internal/analysis/modeexhaustive"
	"resched/internal/analysis/refguard"
	"resched/internal/analysis/wgleak"
)

var analyzers = []*analysis.Analyzer{
	atomicmix.Analyzer,
	chanflow.Analyzer,
	ctxflow.Analyzer,
	errdrop.Analyzer,
	guardedby.Analyzer,
	lockhold.Analyzer,
	modeexhaustive.Analyzer,
	refguard.Analyzer,
	wgleak.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	facts := flag.Bool("facts", false, "also print each analyzer's exported facts, JSON-encoded per package")
	jsonOut := flag.Bool("json", false, "emit findings as a SARIF-lite JSON document instead of plain text")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reschedvet [-list] [-facts] [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Runs the resched domain analyzers over the packages (default ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reschedvet:", err)
		os.Exit(2)
	}
	diags, allFacts, err := analysis.RunAnalyzersFacts(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reschedvet:", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	if *jsonOut {
		if err := writeSARIF(os.Stdout, cwd, diags); err != nil {
			fmt.Fprintln(os.Stderr, "reschedvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", relPath(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if *facts && !*jsonOut {
		printFacts(allFacts)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "reschedvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// printFacts dumps the per-analyzer fact sets in a stable order, one
// line per analyzer: `facts[name]: {...json...}`. Empty sets are
// skipped so a clean run with no flow facts prints nothing extra.
func printFacts(allFacts map[string]*analysis.FactSet) {
	names := make([]string, 0, len(allFacts))
	for name := range allFacts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs := allFacts[name]
		if fs == nil || len(fs.All()) == 0 {
			continue
		}
		data, err := fs.Encode()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reschedvet: encoding %s facts: %v\n", name, err)
			os.Exit(2)
		}
		fmt.Printf("facts[%s]: %s\n", name, data)
	}
}
