package lint

// Intra-procedural control-flow graphs over go/ast function bodies.
//
// A CFG lowers one function body to basic blocks connected by directed
// edges. Blocks carry the simple statements and controlling expressions
// they execute, in source order — never compound statements, whose
// bodies become blocks of their own. The lowering covers if/else,
// for (all three clauses), range, switch (with fallthrough), type
// switch, select, labeled break/continue, goto, defer, and treats
// panic / os.Exit / log.Fatal* / runtime.Goexit as flow terminators.
//
// The graph is deterministic: block indices follow lowering order,
// which follows source order, so two builds of the same body are
// structurally identical. DebugString renders that shape for golden
// tests.

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// Block is one basic block. Nodes holds simple statements and the
// controlling expressions evaluated in this block (for an `if` block:
// the init statement and the condition), in execution order. Compound
// statements never appear in Nodes.
type Block struct {
	Index int
	Kind  string     // "entry", "exit", "if.then", "for.loop", ...
	Nodes []ast.Node // simple statements + control expressions, source order
	Term  ast.Stmt   // the branching statement this block ends on, if any
	Comm  ast.Stmt   // for select.case blocks: the comm clause's send/recv
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of a single function body. Exit is the
// unique synthetic exit block: every return statement and every fall
// off the end of the body edges into it. Blocks that cannot reach Exit
// run forever (or end the process).
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// NewCFG lowers a function body to basic blocks. A nil body (external
// declaration) yields a two-block entry→exit graph.
func NewCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{
		c:      c,
		labels: make(map[string]*Block),
		gotos:  make(map[string][]*Block),
	}
	c.Entry = b.newBlock("entry")
	c.Exit = &Block{Kind: "exit"}
	b.cur = c.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		b.edge(b.cur, c.Exit)
	}
	c.Blocks = append(c.Blocks, c.Exit)
	for i, blk := range c.Blocks {
		blk.Index = i
	}
	for _, blk := range c.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return c
}

// branchTarget is one entry of the break/continue resolution stack.
type branchTarget struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select entries
}

type cfgBuilder struct {
	c       *CFG
	cur     *Block // nil while lowering unreachable code
	targets []branchTarget
	labels  map[string]*Block   // resolved goto/label targets
	gotos   map[string][]*Block // blocks waiting on a forward label
	label   string              // pending label for the next loop/switch/select
	fallTo  *Block              // fallthrough target while lowering a case body
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Kind: kind}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// ensure materializes a block for statements lowered while cur is nil
// (code after a return/branch). Such blocks have no predecessors and
// stay invisible to path-sensitive checks, but keep lowering total.
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// startBlock begins a new block with an edge from cur (when reachable).
func (b *cfgBuilder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label set by a LabeledStmt so only the
// construct immediately under the label binds it.
func (b *cfgBuilder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

// findBreak resolves the target of a (possibly labeled) break.
func (b *cfgBuilder) findBreak(label string) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label == "" || t.label == label {
			return t.brk
		}
	}
	return nil
}

// findContinue resolves the target of a (possibly labeled) continue.
func (b *cfgBuilder) findContinue(label string) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if t.cont == nil {
			continue // switch/select: continue passes through
		}
		if label == "" || t.label == label {
			return t.cont
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label point is its own block so gotos have a target that
		// precedes any loop init of the labeled construct.
		lb := b.startBlock("label." + s.Label.Name)
		b.labels[s.Label.Name] = lb
		for _, g := range b.gotos[s.Label.Name] {
			b.edge(g, lb)
		}
		delete(b.gotos, s.Label.Name)
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.ensure()
		cond.Term = s
		then := b.newBlock("if.then")
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		var elseEnd *Block
		elseFrom := cond // no else: false branch falls through
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			elseEnd = b.cur
			elseFrom = nil
		}
		if thenEnd == nil && elseEnd == nil && elseFrom == nil {
			b.cur = nil
			return
		}
		done := b.newBlock("if.done")
		if elseFrom != nil {
			b.edge(elseFrom, done)
		}
		if thenEnd != nil {
			b.edge(thenEnd, done)
		}
		if elseEnd != nil {
			b.edge(elseEnd, done)
		}
		b.cur = done

	case *ast.ForStmt:
		lbl := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.startBlock("for.loop")
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head.Term = s
		body := b.newBlock("for.body")
		b.edge(head, body)
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		done := b.newBlock("for.done")
		if s.Cond != nil {
			b.edge(head, done)
		}
		cont := head
		if post != nil {
			cont = post
		}
		b.targets = append(b.targets, branchTarget{label: lbl, brk: done, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, cont)
		}
		b.cur = done

	case *ast.RangeStmt:
		lbl := b.takeLabel()
		b.add(s.X)
		head := b.startBlock("range.loop")
		head.Term = s
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, done)
		b.targets = append(b.targets, branchTarget{label: lbl, brk: done, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.targets = b.targets[:len(b.targets)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = done

	case *ast.SwitchStmt:
		b.lowerSwitch(s, s.Init, s.Tag, caseClauses(s.Body))

	case *ast.TypeSwitchStmt:
		b.lowerSwitch(s, s.Init, nil, caseClauses(s.Body))

	case *ast.SelectStmt:
		lbl := b.takeLabel()
		cond := b.ensure()
		cond.Term = s
		done := b.newBlock("select.done")
		b.targets = append(b.targets, branchTarget{label: lbl, brk: done})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind)
			b.edge(cond, blk)
			b.cur = blk
			if cc.Comm != nil {
				blk.Comm = cc.Comm
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, done)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		// select{} (no cases) blocks forever: done keeps no entry edge
		// and the function cannot reach exit through it.
		b.cur = done

	case *ast.BranchStmt:
		blk := b.ensure()
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if t := b.findBreak(label); t != nil {
				b.edge(blk, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(label); t != nil {
				b.edge(blk, t)
			}
		case token.GOTO:
			if t, ok := b.labels[label]; ok {
				b.edge(blk, t)
			} else {
				b.gotos[label] = append(b.gotos[label], blk)
			}
		case token.FALLTHROUGH:
			if b.fallTo != nil {
				b.edge(blk, b.fallTo)
			}
		}
		b.cur = nil

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.c.Exit)
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && noReturnCall(call) {
			b.cur = nil // panic/os.Exit/...: flow ends without reaching exit
		}

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt.
		b.add(s)
	}
}

func caseClauses(body *ast.BlockStmt) []*ast.CaseClause {
	out := make([]*ast.CaseClause, len(body.List))
	for i, cl := range body.List {
		out[i] = cl.(*ast.CaseClause)
	}
	return out
}

// lowerSwitch handles both expression and type switches. The tag block
// branches to every case (and to done when no default exists); each
// case body may fall through to the next clause.
func (b *cfgBuilder) lowerSwitch(s ast.Stmt, init ast.Stmt, tag ast.Expr, clauses []*ast.CaseClause) {
	lbl := b.takeLabel()
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	if ts, ok := s.(*ast.TypeSwitchStmt); ok {
		b.add(ts.Assign)
	}
	cond := b.ensure()
	cond.Term = s
	done := b.newBlock("switch.done")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(kind)
		b.edge(cond, bodies[i])
	}
	if !hasDefault {
		b.edge(cond, done)
	}
	b.targets = append(b.targets, branchTarget{label: lbl, brk: done})
	outerFall := b.fallTo
	for i, cc := range clauses {
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.fallTo = nil
		if i+1 < len(bodies) {
			b.fallTo = bodies[i+1]
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, done)
		}
	}
	b.fallTo = outerFall
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = done
}

// noReturnCall recognizes calls that end control flow without reaching
// the function's exit: panic, os.Exit, log.Fatal*, runtime.Goexit. The
// match is syntactic (shadowing these names would defeat it), which is
// the same trade the rest of the suite makes for zero dependencies.
func noReturnCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// DebugString renders the CFG one block per line:
//
//	b0 entry: [x := 0] -> b1
//
// for golden tests. Node source text is printed with go/printer and
// collapsed to single-line form.
func (c *CFG) DebugString(fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.Index, blk.Kind)
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, " [%s]", nodeSource(fset, n))
		}
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func nodeSource(fset *token.FileSet, n ast.Node) string {
	var buf strings.Builder
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}
