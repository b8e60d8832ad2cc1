// Package modeexhaustive enforces exhaustiveness for the domain's
// mode and lifecycle enums. The scheduler-mode enums (core.BLMethod,
// core.BDMethod, core.DLAlgorithm, cpa.StopRule) and the reservation
// lifecycle enum (resbook.Status) each enumerate a closed set the
// paper defines; a switch that silently ignores a member — the way
// deadlineAggressive once left its allocation bound nil for
// non-DL_BD algorithms — turns an unhandled mode into a downstream
// failure far from the cause. Every switch over these types must
// either name every declared constant or carry a default clause. What
// the default does is left to tests: judging it by shape (flagging an
// empty one) caught none of the seeded faults, and an assignment-only
// default slips past any such rule (DESIGN.md §20).
package modeexhaustive

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"resched/internal/analysis"
)

// GuardedEnums names the defined types whose switches must be
// exhaustive, as "import/path.TypeName".
var GuardedEnums = map[string]bool{
	"resched/internal/core.BLMethod":    true,
	"resched/internal/core.BDMethod":    true,
	"resched/internal/core.DLAlgorithm": true,
	"resched/internal/cpa.StopRule":     true,
	"resched/internal/resbook.Status":   true,
}

// Analyzer checks switch statements whose tag has a guarded enum
// type.
var Analyzer = &analysis.Analyzer{
	Name: "modeexhaustive",
	Doc: "switches over the scheduler-mode and reservation-lifecycle enums must cover " +
		"every declared constant or have a default",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if ok && sw.Tag != nil {
				checkSwitch(pass, sw)
			}
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.TypesInfo.Types[sw.Tag]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if ok && named.Obj().Pkg() == nil {
		return
	}
	if !ok || !GuardedEnums[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
		return
	}
	enum := declaredConstants(named)
	if len(enum) == 0 {
		return
	}

	covered := map[string]bool{}
	hasDefault := false
	for _, clause := range sw.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, expr := range cc.List {
			v := pass.TypesInfo.Types[expr].Value
			if v == nil {
				continue
			}
			for _, c := range enum {
				if constant.Compare(v, token.EQL, c.Val()) {
					covered[c.Name()] = true
				}
			}
		}
	}
	if hasDefault {
		return
	}
	var missing []string
	for _, c := range enum {
		if !covered[c.Name()] {
			missing = append(missing, c.Name())
		}
	}
	if len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s is not exhaustive: missing %s (add the cases or a default that fails loudly)",
			named.Obj().Name(), strings.Join(missing, ", "))
	}
}

// declaredConstants returns the package-level constants declared with
// the enum's exact type, in declaration order.
func declaredConstants(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}
