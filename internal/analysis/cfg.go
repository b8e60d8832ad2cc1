package analysis

import (
	"go/ast"
	"go/token"
)

// CFG is a per-function control-flow graph over basic blocks, the
// substrate of the flow-sensitive analyzers (lockhold's and
// guardedby's locksets, errdrop's dead error definitions). It is built from syntax alone — no SSA — which keeps
// it small but means analyses must themselves resolve names through
// go/types.
//
// Blocks hold the *leaf* nodes that execute in them, in order:
// simple statements, branch conditions, switch tags and case
// expressions, range headers, and select markers. Compound statement
// bodies never appear inside a block node — they live in their own
// blocks — so analyses should traverse block nodes with WalkBlockNode,
// which knows which children of a header node belong to it.
type CFG struct {
	// Blocks lists every basic block; Blocks[0] is the function entry.
	Blocks []*Block
}

// Block is one basic block: a maximal sequence of nodes that execute
// consecutively, with edges to every possible successor.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*labelBlocks{}}
	b.stmtList(body.List, b.newBlock())
	return b.cfg
}

// labelBlocks records the jump targets a label can name.
type labelBlocks struct {
	// target is where `goto L` and entering the labeled statement
	// land.
	target *Block
	// brk and cont are the break/continue targets while the labeled
	// loop or switch is being built.
	brk, cont *Block
}

type cfgBuilder struct {
	cfg    *CFG
	labels map[string]*labelBlocks
	// breaks and conts are stacks of the innermost unlabeled
	// break/continue targets.
	breaks []*Block
	conts  []*Block
	// pendingLabel, when non-empty, names the label wrapping the next
	// loop/switch/select statement so labeled break/continue resolve.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmtList builds stmts starting in cur, returning the block where
// control continues (nil if every path left the list).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *Block) *Block {
	for _, s := range stmts {
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt builds one statement. A nil cur means the statement is
// unreachable; it is still built (into a fresh predecessor-less block)
// so analyses see every node.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	if cur == nil {
		cur = b.newBlock()
	}
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur)

	case *ast.LabeledStmt:
		lb := b.labelInfo(s.Label.Name)
		if lb.target == nil {
			lb.target = b.newBlock()
		}
		edge(cur, lb.target)
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, lb.target)
		b.pendingLabel = ""
		return out

	case *ast.IfStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		then := b.newBlock()
		edge(cur, then)
		thenOut := b.stmtList(s.Body.List, then)
		if s.Else == nil {
			join := b.newBlock()
			edge(cur, join)
			edge(thenOut, join)
			return join
		}
		els := b.newBlock()
		edge(cur, els)
		elseOut := b.stmt(s.Else, els)
		if thenOut == nil && elseOut == nil {
			return nil
		}
		join := b.newBlock()
		edge(thenOut, join)
		edge(elseOut, join)
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		head := b.newBlock()
		edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		done := b.newBlock()
		edge(head, body)
		if s.Cond != nil {
			edge(head, done)
		}
		b.pushLoop(label, done, head)
		bodyOut := b.stmtList(s.Body.List, body)
		b.popLoop(label)
		if s.Post != nil {
			if bodyOut == nil {
				bodyOut = b.newBlock() // unreachable post
			}
			bodyOut.Nodes = append(bodyOut.Nodes, s.Post)
		}
		edge(bodyOut, head)
		return done

	case *ast.RangeStmt:
		head := b.newBlock()
		edge(cur, head)
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		done := b.newBlock()
		edge(head, body)
		edge(head, done)
		b.pushLoop(label, done, head)
		bodyOut := b.stmtList(s.Body.List, body)
		b.popLoop(label)
		edge(bodyOut, head)
		return done

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchBody(label, cur, s.Body.List, nil)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.Nodes = append(cur.Nodes, s.Init)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchBody(label, cur, s.Body.List, nil)

	case *ast.SelectStmt:
		// The select itself is a marker node in the predecessor (for
		// blocking-operation detection); each comm clause starts its
		// own block with the comm statement first.
		cur.Nodes = append(cur.Nodes, s)
		return b.switchBody(label, cur, s.Body.List, func(clause ast.Stmt, blk *Block) {
			if comm := clause.(*ast.CommClause).Comm; comm != nil {
				blk.Nodes = append(blk.Nodes, comm)
			}
		})

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				edge(cur, b.labelInfo(s.Label.Name).brk)
			} else if n := len(b.breaks); n > 0 {
				edge(cur, b.breaks[n-1])
			}
		case token.CONTINUE:
			if s.Label != nil {
				edge(cur, b.labelInfo(s.Label.Name).cont)
			} else if n := len(b.conts); n > 0 {
				edge(cur, b.conts[n-1])
			}
		case token.GOTO:
			lb := b.labelInfo(s.Label.Name)
			if lb.target == nil {
				lb.target = b.newBlock()
			}
			edge(cur, lb.target)
		case token.FALLTHROUGH:
			// switchBody wires fallthrough edges; nothing to do here
			// beyond ending the block.
		}
		return nil

	default:
		// Simple statements: expression, send, inc/dec, assignment,
		// declaration, go, defer, empty.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchBody builds the clause blocks of a switch, type switch, or
// select. Each clause gets its own block reachable from cur; control
// joins after the statement. prep, if non-nil, seeds a clause's block
// before its body (select's comm statement).
func (b *cfgBuilder) switchBody(label string, cur *Block, clauses []ast.Stmt, prep func(ast.Stmt, *Block)) *Block {
	done := b.newBlock()
	b.pushSwitch(label, done)
	defer b.popSwitch(label)

	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		blocks[i] = b.newBlock()
		edge(cur, blocks[i])
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			blocks[i].Nodes = append(blocks[i].Nodes, exprNodes(c.List)...)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
		}
		if prep != nil {
			prep(clause, blocks[i])
		}
	}
	if !hasDefault || len(clauses) == 0 {
		edge(cur, done)
	}
	for i, clause := range clauses {
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		// A trailing fallthrough transfers to the next clause's block;
		// it is dropped from the built body so the block does not end
		// (BranchStmt would sever the edge).
		if fallsThrough(body) && i+1 < len(clauses) {
			out := b.stmtList(body[:len(body)-1], blocks[i])
			edge(out, blocks[i+1])
		} else {
			edge(b.stmtList(body, blocks[i]), done)
		}
	}
	return done
}

// fallsThrough reports whether a case body ends in a fallthrough
// statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func exprNodes(exprs []ast.Expr) []ast.Node {
	out := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		out[i] = e
	}
	return out
}

func (b *cfgBuilder) labelInfo(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	return lb
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
	if label != "" {
		lb := b.labelInfo(label)
		lb.brk, lb.cont = brk, cont
	}
}

func (b *cfgBuilder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
	if label != "" {
		lb := b.labelInfo(label)
		lb.brk, lb.cont = nil, nil
	}
}

func (b *cfgBuilder) pushSwitch(label string, brk *Block) {
	b.breaks = append(b.breaks, brk)
	if label != "" {
		b.labelInfo(label).brk = brk
	}
}

func (b *cfgBuilder) popSwitch(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	if label != "" {
		b.labelInfo(label).brk = nil
	}
}

// WalkBlockNode traverses the syntax that executes as part of a block
// node, in approximate evaluation order, calling f in pre-order; f
// returning false prunes the subtree. It differs from ast.Inspect in
// the places where CFG construction split a statement across blocks:
//
//   - a RangeStmt node stands for the header only (Key, Value, X) —
//     the body is in other blocks;
//   - a SelectStmt node is a pure marker — comm statements and bodies
//     are in the clause blocks;
//   - function literals are not entered: a nested function body
//     executes on its own activation, not in this block.
func WalkBlockNode(n ast.Node, f func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if !f(n) {
			return
		}
		if n.Key != nil {
			WalkBlockNode(n.Key, f)
		}
		if n.Value != nil {
			WalkBlockNode(n.Value, f)
		}
		WalkBlockNode(n.X, f)
	case *ast.SelectStmt:
		f(n)
	default:
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil {
				return false
			}
			if _, ok := child.(*ast.FuncLit); ok && child != n {
				f(child) // visible, but its body is not entered
				return false
			}
			return f(child)
		})
	}
}
