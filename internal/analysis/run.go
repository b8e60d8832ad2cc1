package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// ignoreDirective is the comment prefix that suppresses findings. See
// the package documentation.
const ignoreDirective = "//reschedvet:ignore"

// ignoreSet records, per file and line, which analyzers are silenced
// there. The empty string key means "all analyzers".
type ignoreSet map[string]map[int]map[string]bool

// IgnoreCheck is the analyzer name on findings about the ignore
// directives themselves.
const IgnoreCheck = "ignore"

// collectIgnores scans a package's comments for ignore directives. A
// directive silences its own line and the line below it, so it can
// sit at the end of the offending line or on its own line above. Its
// leading words that name analyzers of this run are the analyzers it
// silences; the rest is the reason. A directive whose first word names
// no analyzer (one that was deleted or misspelled, say) silences
// nothing and is returned as a finding, so it cannot linger unseen.
func collectIgnores(pkg *Package, known map[string]bool) (ignoreSet, []Diagnostic) {
	set := ignoreSet{}
	var stale []Diagnostic
	add := func(file string, line int, name string) {
		lines := set[file]
		if lines == nil {
			lines = map[int]map[string]bool{}
			set[file] = lines
		}
		for _, l := range []int{line, line + 1} {
			if lines[l] == nil {
				lines[l] = map[string]bool{}
			}
			lines[l][name] = true
		}
	}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //reschedvet:ignoreXXX is not a directive
				}
				pos := pkg.Fset.Position(c.Pos())
				words := strings.Fields(rest)
				if len(words) == 0 {
					add(pos.Filename, pos.Line, "")
					continue
				}
				if !known[words[0]] {
					stale = append(stale, Diagnostic{Analyzer: IgnoreCheck, Pos: pos,
						Message: fmt.Sprintf("%s names no analyzer: %q (a bare directive silences all of them)", ignoreDirective, words[0])})
					continue
				}
				for _, w := range words {
					if !known[w] {
						break
					}
					add(pos.Filename, pos.Line, w)
				}
			}
		}
	}
	return set, stale
}

func (s ignoreSet) suppresses(d Diagnostic) bool {
	names := s[d.Pos.Filename][d.Pos.Line]
	return names[""] || names[d.Analyzer]
}

// RunAnalyzers applies every analyzer to every package and returns
// the surviving findings sorted by position. An error from an
// analyzer aborts the run: it indicates a broken analyzer, not a
// finding.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersFacts(pkgs, analyzers)
	return diags, err
}

// importOrder returns pkgs plus their transitive source-checked
// dependencies, dependencies first, so facts exported by a package are
// in place before any importer is analyzed.
func importOrder(pkgs []*Package) []*Package {
	var order []*Package
	seen := map[*Package]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, dep := range p.Imports {
			visit(dep)
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// RunAnalyzersFacts is RunAnalyzers, also returning each analyzer's
// exported facts (keyed by analyzer name) for inspection — the
// reschedvet -facts flag prints them.
//
// Each analyzer runs over the requested packages AND their transitive
// source-checked dependencies in import order, sharing one fact set,
// so conclusions about a dependency's API (may-block, lock contracts,
// ...) are available when its importers are analyzed. Diagnostics are
// only reported for the requested packages; dependencies are analyzed
// for their facts.
func RunAnalyzersFacts(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, map[string]*FactSet, error) {
	requested := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p] = true
	}
	order := importOrder(pkgs)
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	ignores := make(map[*Package]ignoreSet, len(order))
	for _, pkg := range order {
		set, stale := collectIgnores(pkg, known)
		ignores[pkg] = set
		if requested[pkg] {
			diags = append(diags, stale...)
		}
	}

	allFacts := make(map[string]*FactSet, len(analyzers))
	for _, a := range analyzers {
		facts := NewFactSet()
		allFacts[a.Name] = facts
		for _, pkg := range order {
			pkg := pkg
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				facts:     facts,
			}
			pass.report = func(d Diagnostic) {
				if requested[pkg] && !ignores[pkg].suppresses(d) {
					diags = append(diags, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, allFacts, nil
}
