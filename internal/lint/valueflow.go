package lint

// An SSA-lite value-flow layer over the intra-procedural CFGs: reaching
// definitions give def-use chains (local single-assignment numbering
// with a phi-at-join approximation — a use reached by several defs sees
// the union), and a separate edge-refined must-analysis tracks simple
// value facts (nonzero, nonnegative) through conditionals. The two
// value-flow analyzers (divzero, nansource) are built on it.
//
// Soundness stance, matching the rest of the suite: the layer is
// deliberately unsound in well-documented ways (see DESIGN.md §14) —
// variables whose address is taken or that are reassigned inside nested
// closures are untracked, interprocedural effects are limited to exact
// static calls, and facts are only as strong as the guard patterns
// recognized by applyCond. Analyzers must treat "no fact" as unknown,
// never as a proof.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
	"sort"
)

// defKind classifies one definition site of a tracked variable.
type defKind uint8

const (
	defParam    defKind = iota // parameter, receiver, or named result: live at entry
	defAssign                  // x = e / x := e with a one-to-one rhs
	defOpaque                  // multi-value assignment or otherwise opaque rhs
	defZero                    // var x T with no initializer: implicit zero
	defCompound                // x += e, x *= e, ...
	defIncDec                  // x++, x--
	defRange                   // range key/value variable
)

// defSite is one definition of a tracked variable.
type defSite struct {
	id   int
	v    *types.Var
	kind defKind
	node ast.Node       // defining stmt/spec; nil for defParam
	rhs  ast.Expr       // one-to-one defining expression (defAssign, defCompound)
	rng  *ast.RangeStmt // the range statement, for defRange
}

// funcFlow is the value-flow summary of one function body: its CFG, the
// numbered definition sites of every tracked local, and the reaching
// definitions at each use identifier.
type funcFlow struct {
	pkg  *Package
	cfg  *CFG
	body *ast.BlockStmt

	defs    []*defSite
	defsIn  map[ast.Node][]*defSite       // block-level node -> defs it performs
	rngDefs map[*ast.RangeStmt][]*defSite // range stmt -> key/value defs
	tracked map[*types.Var]bool
	useDefs map[*ast.Ident][]int // use ident -> reaching def ids (sorted)
}

// funcSignature resolves the *types.Signature of a call-graph node.
func funcSignature(n *Node) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	sig, _ := n.Pkg.Info.Types[n.Lit].Type.(*types.Signature)
	return sig
}

// newFuncFlow builds the value-flow summary for one call-graph node.
func newFuncFlow(fn *Node) *funcFlow {
	ff := &funcFlow{
		pkg:     fn.Pkg,
		body:    fn.Body(),
		cfg:     fn.CFG(),
		defsIn:  make(map[ast.Node][]*defSite),
		rngDefs: make(map[*ast.RangeStmt][]*defSite),
		tracked: make(map[*types.Var]bool),
		useDefs: make(map[*ast.Ident][]int),
	}
	ff.collectTracked()
	ff.collectDefs(funcSignature(fn))
	sol := Solve[reachFact](ff.cfg, &reachDefsProblem{ff: ff})
	// Within one statement the pre-state applies (x = x+1 reads the old x).
	replay(ff.cfg, sol, ff.step, func(_ *Block, n ast.Node, cur reachFact) { ff.recordUses(n, cur) })
	return ff
}

// collectTracked decides which variables get def-use chains: locals
// (including params) defined in this function, minus any whose address
// is taken or that are written inside a nested function literal — their
// defs are invisible to the intra-procedural CFG.
func (ff *funcFlow) collectTracked() {
	info := ff.pkg.Info
	forEachOwnNode(ff.body, func(n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				ff.tracked[v] = true
			}
		}
	})
	untrack := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				delete(ff.tracked, v)
			}
			if v, ok := info.Defs[id].(*types.Var); ok {
				delete(ff.tracked, v)
			}
		}
	}
	// Full walk including nested literals: an &x or a closure write
	// anywhere invalidates tracking.
	inLit := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			inLit++
			ast.Inspect(e.Body, walk)
			inLit--
			return false
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				untrack(e.X)
			}
		case *ast.AssignStmt:
			if inLit > 0 {
				for _, lhs := range e.Lhs {
					untrack(lhs)
				}
			}
		case *ast.IncDecStmt:
			if inLit > 0 {
				untrack(e.X)
			}
		}
		return true
	}
	ast.Inspect(ff.body, walk)
}

// objOf resolves the variable behind an identifier in def or use position.
func (ff *funcFlow) objOf(id *ast.Ident) *types.Var {
	info := ff.pkg.Info
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// collectDefs numbers every definition site in deterministic order:
// params and named results first (entry defs), then block-level nodes in
// block index order.
func (ff *funcFlow) collectDefs(sig *types.Signature) {
	add := func(d *defSite) *defSite {
		d.id = len(ff.defs)
		ff.defs = append(ff.defs, d)
		return d
	}
	if sig != nil {
		var entryVars []*types.Var
		if r := sig.Recv(); r != nil && r.Name() != "" && r.Name() != "_" {
			entryVars = append(entryVars, r)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			entryVars = append(entryVars, sig.Params().At(i))
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if sig.Results().At(i).Name() != "" {
				entryVars = append(entryVars, sig.Results().At(i))
			}
		}
		for _, v := range entryVars {
			if v.Name() == "" || v.Name() == "_" {
				continue
			}
			ff.tracked[v] = true
			add(&defSite{v: v, kind: defParam})
		}
	}
	bind := func(n ast.Node, id *ast.Ident, kind defKind, rhs ast.Expr) {
		v := ff.objOf(id)
		if v == nil || !ff.tracked[v] {
			return
		}
		ff.defsIn[n] = append(ff.defsIn[n], add(&defSite{v: v, kind: kind, node: n, rhs: rhs}))
	}
	for _, blk := range ff.cfg.Blocks {
		for _, n := range blk.Nodes {
			switch s := n.(type) {
			case *ast.AssignStmt:
				ff.assignDefs(n, s, bind)
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
					bind(n, id, defIncDec, nil)
				}
			case *ast.DeclStmt:
				gd, ok := s.Decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						switch {
						case len(vs.Values) == 0:
							bind(n, name, defZero, nil)
						case len(vs.Values) == len(vs.Names):
							bind(n, name, defAssign, vs.Values[i])
						default:
							bind(n, name, defOpaque, nil)
						}
					}
				}
			}
		}
		if rs, ok := blk.Term.(*ast.RangeStmt); ok && ff.rngDefs[rs] == nil {
			for _, e := range []ast.Expr{rs.Key, rs.Value} {
				id, ok := e.(*ast.Ident)
				if !ok {
					continue
				}
				v := ff.objOf(id)
				if v == nil || !ff.tracked[v] {
					continue
				}
				d := add(&defSite{v: v, kind: defRange, node: rs, rng: rs})
				ff.rngDefs[rs] = append(ff.rngDefs[rs], d)
			}
			if ff.rngDefs[rs] == nil {
				ff.rngDefs[rs] = []*defSite{} // visited marker
			}
		}
	}
}

// assignDefs extracts the defs of one assignment statement.
func (ff *funcFlow) assignDefs(n ast.Node, s *ast.AssignStmt, bind func(ast.Node, *ast.Ident, defKind, ast.Expr)) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					bind(n, id, defAssign, s.Rhs[i])
				}
			}
			return
		}
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				bind(n, id, defOpaque, nil)
			}
		}
	default: // +=, -=, *=, /=, ...
		if id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident); ok {
			bind(n, id, defCompound, s.Rhs[0])
		}
	}
}

// reachFact maps each tracked variable to the sorted ids of defs that
// may reach this program point.
type reachFact map[*types.Var][]int

type reachDefsProblem struct {
	plainEdges[reachFact]
	ff *funcFlow
}

func (p *reachDefsProblem) Boundary() reachFact {
	f := make(reachFact)
	for _, d := range p.ff.defs {
		if d.kind == defParam {
			f[d.v] = []int{d.id}
		}
	}
	return f
}

func (p *reachDefsProblem) Transfer(b *Block, in reachFact) reachFact {
	out := in
	for _, n := range b.Nodes {
		out = p.ff.step(n, out)
	}
	if rs, ok := b.Term.(*ast.RangeStmt); ok {
		out = bindDefs(out, p.ff.rngDefs[rs])
	}
	return out
}

// step folds one block-level node's defs into a reaching-defs fact.
func (ff *funcFlow) step(n ast.Node, in reachFact) reachFact { return bindDefs(in, ff.defsIn[n]) }

// bindDefs makes each def the only one reaching its variable, copying
// the fact first when there is anything to bind.
func bindDefs(in reachFact, defs []*defSite) reachFact {
	if len(defs) == 0 {
		return in
	}
	out := maps.Clone(in)
	for _, d := range defs {
		out[d.v] = []int{d.id}
	}
	return out
}

func (p *reachDefsProblem) Merge(a, b reachFact) reachFact {
	out := make(reachFact, len(a))
	for v, ids := range a {
		out[v] = ids
	}
	for v, ids := range b {
		out[v] = unionSorted(out[v], ids)
	}
	return out
}

func (p *reachDefsProblem) Equal(a, b reachFact) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ids := range a {
		o, ok := b[v]
		if !ok || len(o) != len(ids) {
			return false
		}
		for i := range ids {
			if ids[i] != o[i] {
				return false
			}
		}
	}
	return true
}

func unionSorted(a, b []int) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, x := range out {
		if i == 0 || x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}

// recordUses registers the reaching defs for each tracked-variable use
// inside one block-level node, skipping plain-assignment targets (which
// are defs, not reads) and nested function literals.
func (ff *funcFlow) recordUses(n ast.Node, cur reachFact) {
	info := ff.pkg.Info
	defTargets := make(map[*ast.Ident]bool)
	if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				defTargets[id] = true
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok || defTargets[id] {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !ff.tracked[v] {
			return true
		}
		ff.useDefs[id] = cur[v]
		return true
	})
}

// defsFor returns the definition sites reaching a use identifier.
func (ff *funcFlow) defsFor(id *ast.Ident) []*defSite {
	ids, ok := ff.useDefs[id]
	if !ok {
		return nil
	}
	out := make([]*defSite, len(ids))
	for i, n := range ids {
		out[i] = ff.defs[n]
	}
	return out
}

// defChain renders a def-use witness for a use identifier: the chain of
// definition sites feeding it, origin first, depth-limited. Only the
// first def at each level is followed — the witness is one example path,
// not the whole dag.
func (ff *funcFlow) defChain(id *ast.Ident, depth int) []string {
	var chain []string
	seen := make(map[int]bool)
	cur := id
	for i := 0; i < depth && cur != nil; i++ {
		defs := ff.defsFor(cur)
		if len(defs) == 0 {
			break
		}
		d := defs[0]
		if seen[d.id] {
			break
		}
		seen[d.id] = true
		chain = append(chain, ff.renderDef(d))
		cur = nil
		if d.rhs != nil {
			ast.Inspect(d.rhs, func(x ast.Node) bool {
				if cur != nil {
					return false
				}
				if nid, ok := x.(*ast.Ident); ok {
					if v, ok := ff.pkg.Info.Uses[nid].(*types.Var); ok && ff.tracked[v] {
						cur = nid
						return false
					}
				}
				return true
			})
		}
	}
	// Origin first.
	for l, r := 0, len(chain)-1; l < r; l, r = l+1, r-1 {
		chain[l], chain[r] = chain[r], chain[l]
	}
	return chain
}

// witness builds a def-use witness path for a reported expression: the
// definition chain of its first tracked-variable operand, origin first.
func (ff *funcFlow) witness(e ast.Expr) []string {
	var id *ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if id != nil {
			return false
		}
		if x, ok := n.(*ast.Ident); ok {
			if v, ok := ff.pkg.Info.Uses[x].(*types.Var); ok && ff.tracked[v] && len(ff.useDefs[x]) > 0 {
				id = x
				return false
			}
		}
		return true
	})
	if id == nil {
		return nil
	}
	return ff.defChain(id, 4)
}

// renderDef formats one definition site for a witness path.
func (ff *funcFlow) renderDef(d *defSite) string {
	switch d.kind {
	case defParam:
		return fmt.Sprintf("%s (parameter)", d.v.Name())
	case defRange:
		pos := ff.pkg.Fset.Position(d.node.Pos())
		return fmt.Sprintf("%s (range variable, %s:%d)", d.v.Name(), filepath.Base(pos.Filename), pos.Line)
	default:
		pos := ff.pkg.Fset.Position(d.node.Pos())
		return fmt.Sprintf("%s (%s:%d)", nodeSource(ff.pkg.Fset, d.node), filepath.Base(pos.Filename), pos.Line)
	}
}

// ---- edge-refined value facts ----

// factBits is the small must-fact lattice per variable: the analysis
// proves bits, absence of a bit means "unknown", never "false".
type factBits uint8

const (
	factNonzero factBits = 1 << iota
	factNonneg
)

const factPositive = factNonzero | factNonneg

// factKey addresses either a variable's value or its length.
type factKey struct {
	v     *types.Var
	isLen bool
}

type factState map[factKey]factBits

// funcFacts holds the per-node entry states of the fact analysis, a
// forward must-problem for Solve: intersection at joins, and an edge
// step that adds what a branch condition proves on that edge.
type funcFacts struct {
	ff     *funcFlow
	atNode map[ast.Node]factState // entry state per block-level node
}

func newFuncFacts(ff *funcFlow) *funcFacts {
	fc := &funcFacts{ff: ff, atNode: make(map[ast.Node]factState)}
	sol := Solve[factState](ff.cfg, fc)
	replay(ff.cfg, sol, fc.step, func(_ *Block, n ast.Node, st factState) { fc.atNode[n] = st })
	return fc
}

func (fc *funcFacts) Boundary() factState { return factState{} }

func (fc *funcFacts) Transfer(blk *Block, st factState) factState {
	for _, n := range blk.Nodes {
		st = fc.step(n, st)
	}
	if rs, ok := blk.Term.(*ast.RangeStmt); ok {
		st = fc.applyDefs(st, fc.ff.rngDefs[rs])
	}
	return st
}

func (fc *funcFacts) Merge(a, b factState) factState { return intersectState(a, b) }

func (fc *funcFacts) Equal(a, b factState) bool { return maps.Equal(a, b) }

// step updates the fact state across one block-level node.
func (fc *funcFacts) step(n ast.Node, st factState) factState {
	return fc.applyDefs(st, fc.ff.defsIn[n])
}

// applyDefs applies each def in turn to a copy of the state, when there
// is any.
func (fc *funcFacts) applyDefs(st factState, defs []*defSite) factState {
	if len(defs) == 0 {
		return st
	}
	st = maps.Clone(st)
	for _, d := range defs {
		fc.applyDef(st, d)
	}
	return st
}

// applyDef kills the old facts of the defined variable and installs
// whatever the defining expression proves.
func (fc *funcFacts) applyDef(st factState, d *defSite) {
	old := st[factKey{v: d.v}]
	delete(st, factKey{v: d.v})
	delete(st, factKey{v: d.v, isLen: true})
	var bits factBits
	switch d.kind {
	case defAssign:
		bits = fc.exprBits(st, d.rhs)
	case defZero:
		bits = factNonneg // numeric zero value
		if b, ok := d.v.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
			bits = 0
		}
	case defIncDec:
		if inc, ok := d.node.(*ast.IncDecStmt); ok && inc.Tok == token.INC {
			if old&factNonneg != 0 {
				bits = factPositive // nonneg + 1 is at least 1
			}
		}
	case defCompound:
		as, _ := d.node.(*ast.AssignStmt)
		if as != nil {
			rbits := fc.exprBits(st, as.Rhs[0])
			switch as.Tok {
			case token.ADD_ASSIGN:
				if old&factNonneg != 0 && rbits&factNonneg != 0 {
					bits = factNonneg
					if (old|rbits)&factNonzero != 0 {
						bits |= factNonzero
					}
				}
			case token.MUL_ASSIGN:
				if old&factNonneg != 0 && rbits&factNonneg != 0 {
					bits = factNonneg
					if old&factNonzero != 0 && rbits&factNonzero != 0 {
						bits |= factNonzero
					}
				}
			case token.QUO_ASSIGN:
				if old&factNonneg != 0 && rbits&factNonneg != 0 {
					bits = factNonneg
				}
			}
		}
	}
	if bits != 0 {
		st[factKey{v: d.v}] = bits
	}
}

// varOf resolves an expression to a tracked variable, unwrapping parens
// and numeric conversions.
func (fc *funcFacts) varOf(e ast.Expr) *types.Var {
	e = unwrapConv(fc.ff.pkg.Info, e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := fc.ff.pkg.Info.Uses[id].(*types.Var)
	if !ok || !fc.ff.tracked[v] {
		return nil
	}
	return v
}

// exprBits computes the provable fact bits of an expression under the
// given state. It is the single sign/zero oracle divzero and nansource
// query.
func (fc *funcFacts) exprBits(st factState, e ast.Expr) factBits {
	info := fc.ff.pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return constBits(tv.Value)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && fc.ff.tracked[v] {
			return st[factKey{v: v}]
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			if len(x.Args) == 1 {
				return fc.exprBits(st, x.Args[0])
			}
			return 0
		}
		if arg := lenCallArg(info, x); arg != nil {
			bits := factNonneg
			if v := fc.varOf(arg); v != nil {
				bits |= st[factKey{v: v, isLen: true}]
			}
			return bits
		}
		if fn := staticCallee(info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" {
			switch fn.Name() {
			case "Abs", "Sqrt":
				bits := factNonneg
				if len(x.Args) == 1 && fc.exprBits(st, x.Args[0])&factNonzero != 0 {
					bits |= factNonzero
				}
				return bits
			case "Exp", "Exp2":
				return factPositive
			case "Inf":
				return factNonzero
			}
		}
	case *ast.BinaryExpr:
		l, r := fc.exprBits(st, x.X), fc.exprBits(st, x.Y)
		switch x.Op {
		case token.MUL:
			if types.ExprString(ast.Unparen(x.X)) == types.ExprString(ast.Unparen(x.Y)) {
				// x*x is a square: nonnegative, nonzero iff x is.
				return factNonneg | l&factNonzero
			}
			var bits factBits
			if l&factNonneg != 0 && r&factNonneg != 0 {
				bits |= factNonneg
			}
			if l&factNonzero != 0 && r&factNonzero != 0 {
				bits |= factNonzero
			}
			return bits
		case token.ADD:
			if l&factNonneg != 0 && r&factNonneg != 0 {
				bits := factNonneg
				if (l|r)&factNonzero != 0 {
					bits |= factNonzero
				}
				return bits
			}
		case token.QUO:
			var bits factBits
			if l&factNonneg != 0 && r&factNonneg != 0 {
				bits |= factNonneg
			}
			if l&factNonzero != 0 && r&factNonzero != 0 {
				bits |= factNonzero
			}
			return bits
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return fc.exprBits(st, x.X) & factNonzero
		}
		if x.Op == token.ADD {
			return fc.exprBits(st, x.X)
		}
	case *ast.SelectorExpr:
		if tv, ok := info.Types[x]; ok && tv.Value != nil {
			return constBits(tv.Value)
		}
	}
	return 0
}

func constBits(v constant.Value) factBits {
	switch v.Kind() {
	case constant.Int, constant.Float:
		switch constant.Sign(v) {
		case 1:
			return factPositive
		case 0:
			return factNonneg
		}
	}
	return 0
}

// Refine strengthens the outgoing state along a conditional edge: the
// then-edge of an if and the body-edge of a for assume the condition
// true, the else/done edges assume it false.
func (fc *funcFacts) Refine(from, to *Block, out factState) factState {
	var cond ast.Expr
	truth := false
	switch t := from.Term.(type) {
	case *ast.IfStmt:
		switch to.Kind {
		case "if.then":
			cond, truth = t.Cond, true
		case "if.else", "if.done":
			cond, truth = t.Cond, false
		}
	case *ast.ForStmt:
		if t.Cond != nil {
			switch to.Kind {
			case "for.body":
				cond, truth = t.Cond, true
			case "for.done":
				cond, truth = t.Cond, false
			}
		}
	}
	if cond == nil {
		return out
	}
	st := maps.Clone(out)
	fc.applyCond(st, cond, truth)
	return st
}

// applyCond adds the facts implied by a branch condition's truth value.
// Facts are only ever added — the must-analysis intersection at joins
// does the forgetting.
func (fc *funcFacts) applyCond(st factState, cond ast.Expr, truth bool) {
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			fc.applyCond(st, c.X, !truth)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				fc.applyCond(st, c.X, true)
				fc.applyCond(st, c.Y, true)
			}
		case token.LOR:
			if !truth {
				fc.applyCond(st, c.X, false)
				fc.applyCond(st, c.Y, false)
			}
		default:
			fc.applyCompare(st, c, truth)
		}
	}
}

// applyCompare handles `x OP const` and `len(x) OP const` guards (either
// operand order), negating the operator when the branch is false.
func (fc *funcFacts) applyCompare(st factState, c *ast.BinaryExpr, truth bool) {
	info := fc.ff.pkg.Info
	op := c.Op
	subject, constSide := c.X, c.Y
	tv, ok := info.Types[constSide]
	if !ok || tv.Value == nil {
		subject, constSide = c.Y, c.X
		tv, ok = info.Types[constSide]
		if !ok || tv.Value == nil {
			return
		}
		op = flipCompare(op)
	}
	if !truth {
		op = negateCompare(op)
	}
	val := tv.Value
	if val.Kind() != constant.Int && val.Kind() != constant.Float {
		return
	}
	sign := constant.Sign(val)

	key, ok := fc.subjectKey(subject)
	if !ok {
		return
	}
	var bits factBits
	switch op {
	case token.NEQ:
		if sign == 0 {
			bits = factNonzero
		}
	case token.EQL:
		if sign > 0 {
			bits = factPositive
		} else if sign == 0 {
			bits = factNonneg
		}
	case token.GTR: // subject > c
		if sign >= 0 {
			bits = factPositive
		}
	case token.GEQ: // subject >= c
		if sign > 0 {
			bits = factPositive
		} else if sign == 0 {
			bits = factNonneg
		}
	}
	if bits != 0 {
		st[key] |= bits
	}
}

// subjectKey resolves the guarded expression to a fact key: a tracked
// variable or the length of one.
func (fc *funcFacts) subjectKey(e ast.Expr) (factKey, bool) {
	info := fc.ff.pkg.Info
	e = unwrapConv(info, e)
	if arg := lenCallArg(info, e); arg != nil {
		if v := fc.varOf(arg); v != nil {
			return factKey{v: v, isLen: true}, true
		}
		return factKey{}, false
	}
	if v := fc.varOf(e); v != nil {
		return factKey{v: v}, true
	}
	return factKey{}, false
}

func flipCompare(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL, NEQ symmetric
}

func negateCompare(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.GEQ:
		return token.LSS
	case token.GTR:
		return token.LEQ
	case token.LEQ:
		return token.GTR
	}
	return op
}

func intersectState(a, b factState) factState {
	out := make(factState)
	for k, av := range a {
		if bv, ok := b[k]; ok {
			if m := av & bv; m != 0 {
				out[k] = m
			}
		}
	}
	return out
}

// unwrapConv strips parens and single-argument type conversions:
// float64(x) carries x's value facts.
func unwrapConv(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// lenCallArg returns the operand of a len(...) call, or nil. Conversions
// around the call are NOT stripped by this helper — callers unwrap first.
func lenCallArg(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return nil
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	return call.Args[0]
}
