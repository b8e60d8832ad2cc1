// Package analysis is a small, dependency-free static-analysis
// framework modeled on golang.org/x/tools/go/analysis (which is not
// vendored here; the toolchain image carries only the standard
// library). It enforces, on every build, the domain invariants that
// tests, -race and go vet do not: the analyzers under it are the ones
// that killed a seeded fault nothing else killed (`make mutants`,
// DESIGN.md §20).
//
// The cmd/reschedvet multichecker loads packages with Load, runs every
// analyzer with RunAnalyzers, and exits non-zero on any diagnostic;
// `make lint` wires it into `make ci`.
//
// A finding can be suppressed with a directive comment on the same
// line or the line directly above it:
//
//	//reschedvet:ignore ctxflow reason for the exception
//
// Naming one or more analyzers suppresses only those; a bare
// directive suppresses every analyzer on that line. A directive whose
// first word names no analyzer of the run is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ServingPackages are the packages between the HTTP surface and the
// reservation book, where ctxflow and errdrop apply. The batch
// schedulers (internal/core and below) run without a request.
var ServingPackages = map[string]bool{
	"resched/internal/server":    true,
	"resched/internal/api":       true,
	"resched/internal/resbook":   true,
	"resched/internal/lifecycle": true,
}

// Analyzer is one named check. Run inspects a single package through
// its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //reschedvet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check. A returned error aborts the whole vet
	// run (it means the analyzer itself failed, not that the code has
	// findings).
	Run func(*Pass) error
}

// Pass carries one analyzed package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files (and in imported objects)
	// to file positions.
	Fset *token.FileSet
	// Files holds the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's results for Files.
	TypesInfo *types.Info

	report func(Diagnostic)
	// facts is this analyzer's cross-package fact set for the whole
	// run. RunAnalyzers analyzes packages in import order, so by the
	// time a package runs, every module dependency's facts are here.
	facts *FactSet
}

// ExportObjectFact records a fact about obj for importing packages to
// consume. Only objects of the package under analysis may be annotated
// — facts flow from dependency to importer, never sideways.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact of object not from %s", p.Analyzer.Name, p.Pkg.Path()))
	}
	if p.facts == nil {
		p.facts = NewFactSet()
	}
	p.facts.Export(obj, f)
}

// ImportObjectFact copies the fact of f's concrete type recorded for
// obj (by this analyzer, on any package analyzed so far) into f and
// reports whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.Import(obj, f)
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is the finding's resolved file position.
	Pos token.Position
	// Message describes the violated invariant.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Filename returns the name of the file containing pos.
func (p *Pass) Filename(pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Filename(pos), "_test.go")
}

// InModule reports whether the package path belongs to this module.
// Fixture packages under an analyzer's testdata mirror the real import
// paths, so the same predicate serves both the repo and the tests.
func InModule(path string) bool {
	return path == "resched" || strings.HasPrefix(path, "resched/")
}

// DeclaredInFile reports whether obj's declaration lies in a file with
// the given base name (e.g. "reference.go").
func (p *Pass) DeclaredInFile(obj types.Object, base string) bool {
	return filepath.Base(p.Filename(obj.Pos())) == base
}

// Callee resolves the called function or method of a call expression,
// or nil when the callee is not a statically known *types.Func (calls
// through function values, conversions, builtins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier pkg.F
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// ReceiverNamed returns the defined type of a method's receiver,
// unwrapping a pointer receiver, or nil for non-methods.
func ReceiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// HasMethod reports whether the defined type declares a method with
// the given name (on either receiver form).
func HasMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}
