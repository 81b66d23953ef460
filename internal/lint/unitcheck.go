package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// UnitCheck enforces Harmony's dimensioned arithmetic. Declarations
// carry `//harmony:unit(EXPR)` annotations (struct fields, consts, vars,
// named types; function parameters and results via doc-comment lines
// `//harmony:unit(EXPR) <name>` and `//harmony:unit(EXPR) return [i]`),
// and the checker infers units through the value-flow layer: def-use
// chains for locals, exact static calls interprocedurally (annotated or
// summarized results), and recognized conversion constants as scale
// hops (W/1000 is kW, s/3600 is h). It reports additions, comparisons,
// assignments, composite literals, call arguments, and returns that mix
// dimensions — or mix scales of one dimension without an annotated
// conversion — with a def-use witness path. Malformed or unbindable
// annotations are reported instead of silently ignored.
var UnitCheck = &Analyzer{
	Name:      "unitcheck",
	Doc:       "check //harmony:unit dimension annotations over the control path's value flow",
	RunModule: runUnitCheck,
}

const unitMarker = "harmony:unit"

// parseUnitComment recognizes a //harmony:unit(EXPR) directive. ok means
// the comment is an attempt at one (so malformed attempts are reported,
// not skipped); expr is the text inside the parentheses, rest any
// binding words after them. A missing or unclosed parenthesis yields
// ok=true with expr=="" and malformed=true.
func parseUnitComment(c *ast.Comment) (expr, rest string, malformed, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, unitMarker) {
		return "", "", false, false
	}
	tail := text[len(unitMarker):]
	if tail != "" && tail[0] != '(' && tail[0] != ' ' {
		return "", "", false, false // a different directive, e.g. harmony:unitfoo
	}
	if !strings.HasPrefix(tail, "(") {
		return "", "", true, true
	}
	end := strings.IndexByte(tail, ')')
	if end < 0 {
		return "", "", true, true
	}
	rest = strings.TrimSpace(tail[end+1:])
	// A trailing line comment after the binding is not part of it.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	return tail[1:end], rest, false, true
}

// unitDirective is one //harmony:unit comment found in a file.
type unitDirective struct {
	c         *ast.Comment
	expr      string
	rest      string
	malformed bool
	bound     bool
}

// unitWorld is the module-wide annotation database plus the inferred
// function summaries, shared by every function check in one run.
type unitWorld struct {
	pass *ModulePass

	objUnits    map[types.Object]unit        // fields, consts, vars, params, named results
	typeUnits   map[*types.TypeName]unit     // named types
	resultUnits map[*types.Func]map[int]unit // function/method result annotations

	envs        map[*Node]*unitEnv
	summaries   map[*types.Func]unit
	summarizing map[*types.Func]bool
}

func runUnitCheck(pass *ModulePass) {
	w := &unitWorld{
		pass:        pass,
		objUnits:    make(map[types.Object]unit),
		typeUnits:   make(map[*types.TypeName]unit),
		resultUnits: make(map[*types.Func]map[int]unit),
		envs:        make(map[*Node]*unitEnv),
		summaries:   make(map[*types.Func]unit),
		summarizing: make(map[*types.Func]bool),
	}
	w.collect()
	for _, n := range pass.Graph.Funcs {
		if pass.InScope(ScopeNumeric, n.Pkg.Path) {
			w.checkFunc(n)
		}
	}
}

// ---- annotation collection ----

func (w *unitWorld) collect() {
	for _, pkg := range w.pass.Pkgs {
		if !w.pass.InScope(ScopeUnitAnnot, pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			w.collectFile(pkg, f)
		}
	}
}

func (w *unitWorld) collectFile(pkg *Package, f *ast.File) {
	dirs := make(map[*ast.Comment]*unitDirective)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			expr, rest, malformed, ok := parseUnitComment(c)
			if !ok {
				continue
			}
			dirs[c] = &unitDirective{c: c, expr: expr, rest: rest, malformed: malformed}
		}
	}
	if len(dirs) == 0 {
		return
	}
	groupDirs := func(cgs ...*ast.CommentGroup) []*unitDirective {
		var out []*unitDirective
		for _, cg := range cgs {
			if cg == nil {
				continue
			}
			for _, c := range cg.List {
				if d, ok := dirs[c]; ok {
					out = append(out, d)
				}
			}
		}
		return out
	}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			declDoc := d.Doc
			if len(d.Specs) != 1 {
				declDoc = nil // a shared doc cannot bind to one spec of many
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, dir := range groupDirs(declDoc, sp.Doc, sp.Comment) {
						w.bindValueSpec(pkg, dir, sp)
					}
				case *ast.TypeSpec:
					for _, dir := range groupDirs(declDoc, sp.Doc, sp.Comment) {
						w.bindTypeSpec(pkg, dir, sp)
					}
				}
			}
		case *ast.FuncDecl:
			for _, dir := range groupDirs(d.Doc) {
				w.bindFuncDoc(pkg, dir, d)
			}
		}
	}
	// Struct fields and interface methods, wherever the type expression
	// appears.
	ast.Inspect(f, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.StructType:
			for _, field := range t.Fields.List {
				for _, dir := range groupDirs(field.Doc, field.Comment) {
					w.bindField(pkg, dir, field)
				}
			}
		case *ast.InterfaceType:
			for _, field := range t.Methods.List {
				for _, dir := range groupDirs(field.Doc, field.Comment) {
					w.bindInterfaceMethod(pkg, dir, field)
				}
			}
		}
		return true
	})
	// Anything left neither bound nor reported is an annotation floating
	// on a non-declaration — stale by construction.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if dir, ok := dirs[c]; ok && !dir.bound {
				if dir.malformed {
					w.pass.Reportf(c.Pos(), "malformed //harmony:unit: missing (EXPR)")
				} else {
					w.pass.Reportf(c.Pos(), "//harmony:unit(%s) binds to no annotatable declaration; delete the stale annotation", dir.expr)
				}
			}
		}
	}
}

// parseDir marks the directive bound and parses its unit expression,
// reporting malformed annotations in place.
func (w *unitWorld) parseDir(dir *unitDirective) (unit, bool) {
	dir.bound = true
	if dir.malformed {
		w.pass.Reportf(dir.c.Pos(), "malformed //harmony:unit: missing (EXPR)")
		return unit{}, false
	}
	u, err := parseUnitExpr(dir.expr)
	if err != nil {
		w.pass.Reportf(dir.c.Pos(), "malformed //harmony:unit(%s): %v", dir.expr, err)
		return unit{}, false
	}
	return u, true
}

func (w *unitWorld) bindValueSpec(pkg *Package, dir *unitDirective, sp *ast.ValueSpec) {
	u, ok := w.parseDir(dir)
	if !ok {
		return
	}
	for _, name := range sp.Names {
		if obj := pkg.Info.Defs[name]; obj != nil {
			w.objUnits[obj] = u
		}
	}
}

func (w *unitWorld) bindTypeSpec(pkg *Package, dir *unitDirective, sp *ast.TypeSpec) {
	u, ok := w.parseDir(dir)
	if !ok {
		return
	}
	if tn, ok := pkg.Info.Defs[sp.Name].(*types.TypeName); ok {
		w.typeUnits[tn] = u
	}
}

func (w *unitWorld) bindField(pkg *Package, dir *unitDirective, field *ast.Field) {
	u, ok := w.parseDir(dir)
	if !ok {
		return
	}
	for _, name := range field.Names {
		if obj := pkg.Info.Defs[name]; obj != nil {
			w.objUnits[obj] = u
		}
	}
}

// bindInterfaceMethod annotates an interface method's single result, so
// calls through the interface carry the unit without resolving impls.
func (w *unitWorld) bindInterfaceMethod(pkg *Package, dir *unitDirective, field *ast.Field) {
	u, ok := w.parseDir(dir)
	if !ok {
		return
	}
	for _, name := range field.Names {
		fn, ok := pkg.Info.Defs[name].(*types.Func)
		if !ok {
			continue
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Results().Len() != 1 {
			w.pass.Reportf(dir.c.Pos(), "//harmony:unit(%s) on interface method %s needs exactly one result", dir.expr, name.Name)
			continue
		}
		w.setResultUnit(fn, 0, u)
	}
}

func (w *unitWorld) setResultUnit(fn *types.Func, idx int, u unit) {
	fn = fn.Origin()
	m := w.resultUnits[fn]
	if m == nil {
		m = make(map[int]unit)
		w.resultUnits[fn] = m
	}
	m[idx] = u
}

// bindFuncDoc binds doc-comment directives to parameters, named results,
// the receiver, or result indices.
func (w *unitWorld) bindFuncDoc(pkg *Package, dir *unitDirective, d *ast.FuncDecl) {
	u, ok := w.parseDir(dir)
	if !ok {
		return
	}
	fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	fields := strings.Fields(dir.rest)
	if len(fields) == 0 {
		w.pass.Reportf(dir.c.Pos(), "//harmony:unit(%s) on a function needs a binding: a parameter/result name or `return [i]`", dir.expr)
		return
	}
	if fields[0] == "return" {
		idx := 0
		if len(fields) > 1 {
			i, err := strconv.Atoi(fields[1])
			if err != nil {
				w.pass.Reportf(dir.c.Pos(), "//harmony:unit(%s) return: bad result index %q", dir.expr, fields[1])
				return
			}
			idx = i
		}
		if idx < 0 || idx >= sig.Results().Len() {
			w.pass.Reportf(dir.c.Pos(), "//harmony:unit(%s) return %d: %s has %d result(s)", dir.expr, idx, d.Name.Name, sig.Results().Len())
			return
		}
		w.setResultUnit(fn, idx, u)
		return
	}
	name := fields[0]
	var bound bool
	bindVar := func(v *types.Var) {
		if v != nil && v.Name() == name {
			w.objUnits[v] = u
			bound = true
		}
	}
	bindVar(sig.Recv())
	for i := 0; i < sig.Params().Len(); i++ {
		bindVar(sig.Params().At(i))
	}
	for i := 0; i < sig.Results().Len(); i++ {
		bindVar(sig.Results().At(i))
	}
	if !bound {
		w.pass.Reportf(dir.c.Pos(), "//harmony:unit(%s) %s: %s has no parameter or result named %q", dir.expr, name, d.Name.Name, name)
	}
}

// ---- inference ----

// unitEnv is the per-function inference context: the value-flow summary
// plus a cycle guard over definition sites.
type unitEnv struct {
	w         *unitWorld
	pkg       *Package
	ff        *funcFlow
	inferring map[int]bool
}

func (w *unitWorld) envFor(n *Node) *unitEnv {
	if env, ok := w.envs[n]; ok {
		return env
	}
	env := &unitEnv{w: w, pkg: n.Pkg, ff: n.Flow(), inferring: make(map[int]bool)}
	w.envs[n] = env
	return env
}

// typeUnit resolves a named-type annotation for an expression type.
func (w *unitWorld) typeUnit(t types.Type) (unit, bool) {
	named, ok := t.(*types.Named)
	if !ok {
		return unit{}, false
	}
	u, ok := w.typeUnits[named.Obj()]
	return u, ok
}

// unitOf infers the unit of an expression: annotations first, then the
// def-use chains, static call summaries, and the scale-hop algebra.
// Unknown is contagious through products and quotients; additions adopt
// the known side (absence of annotation is not evidence of a bug).
func (env *unitEnv) unitOf(e ast.Expr) unit {
	info := env.pkg.Info
	e = ast.Unparen(e)
	tv, hasTV := info.Types[e]
	if hasTV && tv.Value != nil {
		// Constants are dimensionless unless their declaration or type
		// says otherwise (trace.Hour is s); hops handled at the operator.
		if u, ok := env.annotConst(e, tv.Type); ok {
			return u
		}
		return scalarUnit
	}
	if hasTV {
		if u, ok := env.w.typeUnit(tv.Type); ok {
			return u
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if u, ok := env.w.objUnits[obj]; ok {
			return u
		}
		if v, ok := obj.(*types.Var); ok && env.ff != nil && env.ff.tracked[v] {
			return env.unitOfDefs(x)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if u, ok := env.w.objUnits[sel.Obj()]; ok {
				return u
			}
		}
		if u, ok := env.w.objUnits[info.Uses[x.Sel]]; ok {
			return u
		}
	case *ast.IndexExpr:
		return env.unitOf(x.X) // elements of an annotated series share its unit
	case *ast.CallExpr:
		return env.unitOfCall(x)
	case *ast.BinaryExpr:
		return env.unitOfBinary(x)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return env.unitOf(x.X)
		}
	}
	return unit{}
}

// annotConst resolves an annotated constant's unit: an Ident/Selector
// whose object carries an annotation, or a constant of an annotated
// named type (FlatPrice(0.10)).
func (env *unitEnv) annotConst(e ast.Expr, t types.Type) (unit, bool) {
	info := env.pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if u, ok := env.w.objUnits[info.Uses[x]]; ok {
			return u, true
		}
	case *ast.SelectorExpr:
		if u, ok := env.w.objUnits[info.Uses[x.Sel]]; ok {
			return u, true
		}
	}
	return env.w.typeUnit(t)
}

// constPolymorphic reports whether e is a constant with no declared
// unit: literals adopt whatever unit their context demands.
func (env *unitEnv) constPolymorphic(e ast.Expr) bool {
	e = ast.Unparen(e)
	tv, ok := env.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	_, annotated := env.annotConst(e, tv.Type)
	return !annotated
}

// unitOfDefs unifies the units of the definitions reaching a use: the
// phi-at-join approximation. Conflicting or opaque defs yield unknown.
func (env *unitEnv) unitOfDefs(id *ast.Ident) unit {
	out := unit{}
	for _, d := range env.ff.defsFor(id) {
		if env.inferring[d.id] {
			continue // cycle (loop-carried def): the acyclic defs decide
		}
		var u unit
		switch d.kind {
		case defAssign:
			if env.constPolymorphic(d.rhs) {
				continue // sum := 0.0 adopts the unit flowing in later
			}
			env.inferring[d.id] = true
			u = env.unitOf(d.rhs)
			delete(env.inferring, d.id)
		case defCompound:
			as, _ := d.node.(*ast.AssignStmt)
			if as == nil || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
				return unit{} // *= and /= change the unit; give up
			}
			env.inferring[d.id] = true
			u = env.unitOf(as.Rhs[0])
			delete(env.inferring, d.id)
		case defRange:
			env.inferring[d.id] = true
			u = env.unitOf(d.rng.X)
			delete(env.inferring, d.id)
		case defZero, defIncDec:
			continue // zero values and counters adopt the flowing unit
		default: // defParam (unannotated), defOpaque
			return unit{}
		}
		if !u.known {
			return unit{}
		}
		if !out.known {
			out = u
			continue
		}
		if !out.compatible(u) {
			return unit{}
		}
	}
	return out
}

// unitPreservingMath lists 1-argument math functions that return their
// argument's unit.
var unitPreservingMath = map[string]bool{
	"Abs": true, "Floor": true, "Ceil": true, "Round": true, "Trunc": true,
}

func (env *unitEnv) unitOfCall(x *ast.CallExpr) unit {
	info := env.pkg.Info
	if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
		if len(x.Args) != 1 {
			return unit{}
		}
		u := env.unitOf(x.Args[0])
		if u.known {
			return u
		}
		// An unannotated integer expression is a count: dimensionless.
		if at, ok := info.Types[x.Args[0]]; ok {
			if b, ok := at.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return scalarUnit
			}
		}
		return unit{}
	}
	if lenCallArg(info, x) != nil {
		return scalarUnit
	}
	fn := staticCallee(info, x)
	if fn == nil {
		return unit{}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "math" {
		if unitPreservingMath[fn.Name()] && len(x.Args) == 1 {
			return env.unitOf(x.Args[0])
		}
		if (fn.Name() == "Max" || fn.Name() == "Min") && len(x.Args) == 2 {
			lu, ru := env.unitOf(x.Args[0]), env.unitOf(x.Args[1])
			if lu.known && ru.known && lu.compatible(ru) {
				return lu
			}
		}
		return unit{}
	}
	if u, ok := env.w.resultUnits[fn.Origin()][0]; ok {
		return u
	}
	return env.w.summary(fn)
}

// summary infers a single-result function's unit from its return
// expressions — the interprocedural propagation for exact static calls.
// Memoized; cycles resolve to unknown.
func (w *unitWorld) summary(fn *types.Func) unit {
	fn = fn.Origin()
	if u, ok := w.summaries[fn]; ok {
		return u
	}
	if w.summarizing[fn] {
		return unit{}
	}
	node := w.pass.Graph.NodeOf(fn)
	if node == nil || !w.pass.InScope(ScopeUnitAnnot, node.Pkg.Path) {
		return unit{}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 1 {
		w.summaries[fn] = unit{}
		return unit{}
	}
	if u, ok := w.objUnits[sig.Results().At(0)]; ok { // annotated named result
		w.summaries[fn] = u
		return u
	}
	w.summarizing[fn] = true
	defer delete(w.summarizing, fn)
	env := w.envFor(node)
	out := unit{}
	ok := true
	forEachOwnNode(node.Body(), func(n ast.Node) {
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet || !ok || len(ret.Results) != 1 {
			if isRet && len(ret.Results) == 0 {
				ok = false // naked return of an unannotated named result
			}
			return
		}
		u := env.unitOf(ret.Results[0])
		if !u.known {
			ok = false
			return
		}
		if !out.known {
			out = u
			return
		}
		if !out.compatible(u) {
			ok = false
		}
	})
	if !ok {
		out = unit{}
	}
	w.summaries[fn] = out
	return out
}

func constFloat(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil {
		return 0, false
	}
	if tv.Value.Kind() != constant.Int && tv.Value.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(tv.Value)
	return f, true
}

func (env *unitEnv) unitOfBinary(x *ast.BinaryExpr) unit {
	info := env.pkg.Info
	switch x.Op {
	case token.MUL, token.QUO:
		lu, ru := env.unitOf(x.X), env.unitOf(x.Y)
		// Scale hops: multiplying dimensioned data by a recognized
		// conversion constant moves it between scales of its dimension.
		if c, ok := constFloat(info, x.Y); ok && isConversionConst(c) && lu.known && !lu.dims.isScalar() {
			if x.Op == token.MUL {
				return lu.rescale(c)
			}
			return lu.rescale(1 / c)
		}
		if c, ok := constFloat(info, x.X); ok && isConversionConst(c) && x.Op == token.MUL && ru.known && !ru.dims.isScalar() {
			return ru.rescale(c)
		}
		if x.Op == token.MUL {
			return lu.mul(ru)
		}
		return lu.div(ru)
	case token.ADD, token.SUB:
		// A unit-polymorphic constant adopts the other side's unit.
		if env.constPolymorphic(x.X) {
			return env.unitOf(x.Y)
		}
		if env.constPolymorphic(x.Y) {
			return env.unitOf(x.X)
		}
		lu, ru := env.unitOf(x.X), env.unitOf(x.Y)
		if lu.known && ru.known && lu.compatible(ru) {
			return lu
		}
		// Mismatches are the checker's to report; an unknown side is
		// contagious (45 + 215*avg is not a dimensionless sum).
		return unit{}
	case token.REM:
		return env.unitOf(x.X)
	}
	return unit{}
}

// ---- checks ----

var unitCompareOps = map[token.Token]bool{
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
}

func (w *unitWorld) checkFunc(n *Node) {
	env := w.envFor(n)
	forEachOwnNode(n.Body(), func(nd ast.Node) {
		switch x := nd.(type) {
		case *ast.BinaryExpr:
			env.checkBinary(x)
		case *ast.AssignStmt:
			env.checkAssign(x)
		case *ast.CompositeLit:
			env.checkCompositeLit(x)
		case *ast.CallExpr:
			env.checkCallArgs(x)
		case *ast.ReturnStmt:
			if n.Fn != nil {
				env.checkReturn(n.Fn, x)
			}
		}
	})
}

// scaleHint renders the conversion that takes from's scale to to's.
func (env *unitEnv) scaleHint(from, to unit) string {
	f := from.scale / to.scale
	if f >= 1 {
		return fmt.Sprintf("*%g", f)
	}
	return fmt.Sprintf("/%g", 1/f)
}

func (env *unitEnv) checkBinary(x *ast.BinaryExpr) {
	if x.Op != token.ADD && x.Op != token.SUB && !unitCompareOps[x.Op] {
		return
	}
	if env.constPolymorphic(x.X) || env.constPolymorphic(x.Y) {
		return // a literal adopts the other side's unit
	}
	env.checkMixing(x.OpPos, x, env.unitOf(x.X), x.Op, env.unitOf(x.Y))
}

// checkMixing reports two operands of an additive or comparing operator
// whose units disagree. Both checks render the two flavors of
// disagreement: different dimensions ("unit mismatch") and one dimension
// at different scales ("scale mixing" / "unannotated scale hop").
func (env *unitEnv) checkMixing(pos token.Pos, witness ast.Expr, lu unit, op token.Token, ru unit) {
	if !lu.known || !ru.known || lu.compatible(ru) {
		return
	}
	if lu.sameDims(ru) {
		env.w.pass.ReportPathf(pos, env.ff.witness(witness),
			"scale mixing: %s %s %s without an annotated conversion (%s the %s side)",
			lu, op, ru, env.scaleHint(lu, ru), lu)
		return
	}
	env.w.pass.ReportPathf(pos, env.ff.witness(witness), "unit mismatch: %s %s %s", lu, op, ru)
}

// checkFlow reports a value whose unit disagrees with the declared unit
// of the slot it flows into — an assignment target, a struct field, a
// parameter, a result. describe renders the flow given the value's unit.
func (env *unitEnv) checkFlow(pos token.Pos, value ast.Expr, want unit, describe func(got unit) string) {
	if !want.known || env.constPolymorphic(value) {
		return
	}
	got := env.unitOf(value)
	if !got.known || want.compatible(got) {
		return
	}
	if want.sameDims(got) {
		env.w.pass.ReportPathf(pos, env.ff.witness(value),
			"unannotated scale hop: %s (convert with %s)", describe(got), env.scaleHint(got, want))
		return
	}
	env.w.pass.ReportPathf(pos, env.ff.witness(value), "unit mismatch: %s", describe(got))
}

// targetUnit resolves the declared unit of an assignable target.
func (env *unitEnv) targetUnit(lhs ast.Expr) (unit, bool) {
	info := env.pkg.Info
	lhs = ast.Unparen(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if u, ok := env.w.objUnits[obj]; ok {
			return u, true
		}
		if obj != nil {
			if u, ok := env.w.typeUnit(obj.Type()); ok {
				return u, true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if u, ok := env.w.objUnits[sel.Obj()]; ok {
				return u, true
			}
		}
		if u, ok := env.w.objUnits[info.Uses[x.Sel]]; ok {
			return u, true
		}
		if tv, ok := info.Types[x]; ok {
			if u, ok := env.w.typeUnit(tv.Type); ok {
				return u, true
			}
		}
	case *ast.IndexExpr:
		return env.targetUnit(x.X)
	case *ast.StarExpr:
		return env.targetUnit(x.X)
	}
	return unit{}, false
}

func (env *unitEnv) checkAssign(x *ast.AssignStmt) {
	switch x.Tok {
	case token.DEFINE:
		return // a fresh variable adopts its initializer's unit
	case token.ASSIGN:
		if len(x.Lhs) != len(x.Rhs) {
			return
		}
		for i, lhs := range x.Lhs {
			tu, _ := env.targetUnit(lhs)
			env.checkFlow(x.Pos(), x.Rhs[i], tu, func(ru unit) string {
				return fmt.Sprintf("assigning %s value to %s target %s", ru, tu, types.ExprString(lhs))
			})
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if env.constPolymorphic(x.Rhs[0]) {
			return
		}
		lu := env.unitOf(x.Lhs[0])
		if tu, ok := env.targetUnit(x.Lhs[0]); ok {
			lu = tu
		}
		env.checkMixing(x.Pos(), x.Rhs[0], lu, x.Tok, env.unitOf(x.Rhs[0]))
	case token.MUL_ASSIGN, token.QUO_ASSIGN:
		tu, ok := env.targetUnit(x.Lhs[0])
		if !ok || !tu.known || tu.dims.isScalar() {
			return
		}
		ru := env.unitOf(x.Rhs[0])
		if c, isConst := constFloat(env.pkg.Info, x.Rhs[0]); isConst && isConversionConst(c) {
			return // an annotated-target rescale in place is on its own head
		}
		if ru.known && !ru.isScalar() {
			env.w.pass.ReportPathf(x.Pos(), env.ff.witness(x.Rhs[0]),
				"unit mismatch: %s by a %s value changes the unit of %s target %s",
				x.Tok, ru, tu, types.ExprString(x.Lhs[0]))
		}
	}
}

func (env *unitEnv) checkCompositeLit(x *ast.CompositeLit) {
	info := env.pkg.Info
	tv, ok := info.Types[x]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range x.Elts {
		var field *types.Var
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			field, _ = info.Uses[key].(*types.Var)
			value = kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i)
		}
		if field == nil {
			continue
		}
		fu := env.w.objUnits[field]
		env.checkFlow(value.Pos(), value, fu, func(vu unit) string {
			return fmt.Sprintf("field %s is %s but the value is %s", field.Name(), fu, vu)
		})
	}
}

func (env *unitEnv) checkCallArgs(x *ast.CallExpr) {
	info := env.pkg.Info
	if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
		return
	}
	fn := staticCallee(info, x)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range x.Args {
		if i >= sig.Params().Len() || (sig.Variadic() && i >= sig.Params().Len()-1) {
			break
		}
		param := sig.Params().At(i)
		pu := env.w.objUnits[param]
		env.checkFlow(arg.Pos(), arg, pu, func(au unit) string {
			return fmt.Sprintf("argument %d to %s is %s but parameter %s is %s",
				i+1, prettyFuncName(fn), au, param.Name(), pu)
		})
	}
}

func (env *unitEnv) checkReturn(fn *types.Func, ret *ast.ReturnStmt) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		ru, ok := env.w.resultUnits[fn.Origin()][i]
		if !ok {
			ru = env.w.objUnits[sig.Results().At(i)]
		}
		env.checkFlow(res.Pos(), res, ru, func(au unit) string {
			return fmt.Sprintf("returning %s from %s, whose result is declared %s", au, prettyFuncName(fn), ru)
		})
	}
}
