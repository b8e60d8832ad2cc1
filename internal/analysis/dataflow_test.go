package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// checkFunc type-checks src (a complete package) and returns the named
// function's declaration plus the type info.
func checkFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "df_test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, fset
		}
	}
	t.Fatalf("no function %q", name)
	return nil, nil, nil
}

// trackAll makes DeadDefs consider every variable.
func trackAll(*types.Var) bool { return true }

func deadNames(fd *ast.FuncDecl, info *types.Info) []string {
	cfg := NewCFG(fd.Body)
	var names []string
	for _, d := range DeadDefs(cfg, info, trackAll) {
		names = append(names, d.Ident.Name)
	}
	return names
}

func TestDeadDefNeverRead(t *testing.T) {
	// The type-checker itself rejects variables with no reads at all,
	// so the dead defs left for flow analysis are definitions whose
	// reads all happen on other paths — here, before the assignment.
	fd, info, _ := checkFunc(t, `package p
func work() error { return nil }
func sink(error) {}
func f(c bool) {
	var e2 error
	if c {
		sink(e2)
	}
	e2 = work()
}`, "f")
	got := deadNames(fd, info)
	if len(got) != 1 || got[0] != "e2" {
		t.Errorf("dead defs = %v, want [e2]", got)
	}
}

func TestDeadDefOverwrittenBeforeRead(t *testing.T) {
	fd, info, _ := checkFunc(t, `package p
func work() error { return nil }
func sink(error) {}
func f() {
	err := work()
	err = work()
	sink(err)
}`, "f")
	got := deadNames(fd, info)
	if len(got) != 1 || got[0] != "err" {
		t.Errorf("dead defs = %v, want the first err definition", got)
	}
}

func TestDeadDefLiveOnOnePath(t *testing.T) {
	fd, info, _ := checkFunc(t, `package p
func work() error { return nil }
func sink(error) {}
func f(c bool) {
	err := work()
	if c {
		sink(err)
	}
}`, "f")
	if got := deadNames(fd, info); len(got) != 0 {
		t.Errorf("definition live on one path reported dead: %v", got)
	}
}

func TestDeadDefClosureCaptureExcluded(t *testing.T) {
	fd, info, _ := checkFunc(t, `package p
func work() error { return nil }
func sink(error) {}
func f() {
	err := work()
	defer func() { sink(err) }()
	err = work()
}`, "f")
	if got := deadNames(fd, info); len(got) != 0 {
		t.Errorf("captured variable reported dead: %v", got)
	}
}

func TestDeadDefLoopCarried(t *testing.T) {
	fd, info, _ := checkFunc(t, `package p
func work() error { return nil }
func sink(error) {}
func f(n int) {
	var err error
	for i := 0; i < n; i++ {
		sink(err)
		err = work()
	}
}`, "f")
	if got := deadNames(fd, info); len(got) != 0 {
		t.Errorf("loop-carried definition reported dead: %v", got)
	}
}
