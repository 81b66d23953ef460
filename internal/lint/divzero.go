package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// DivZero reports divisions and modulos whose denominator may be zero on
// some control path. The analysis is evidence-based: a finding needs
// both the absence of a nonzero proof (from the flow-sensitive fact
// engine: guards, assignments from provably nonzero expressions) and a
// reaching definition that can actually produce zero — a zero-value
// declaration, an assignment of the constant 0, a length taken without a
// nonempty guard, or a static callee that can return 0. Parameters are
// deliberately not evidence (callers own their contracts), which keeps
// the analyzer quiet on the queueing formulas while still catching the
// zero-initialized counter and unguarded len patterns.
var DivZero = &Analyzer{
	Name:      "divzero",
	Doc:       "report divisions whose denominator has a zero-producing reaching definition and no nonzero guard",
	RunModule: runDivZero,
}

func runDivZero(pass *ModulePass) {
	zeroReturns := make(map[*types.Func]bool)
	for _, n := range pass.Graph.Funcs {
		if pass.InScope(ScopeNumeric, n.Pkg.Path) {
			checkDivZero(pass, n, zeroReturns)
		}
	}
}

func checkDivZero(pass *ModulePass, fn *Node, zeroReturns map[*types.Func]bool) {
	ff, fc := fn.Flow(), fn.ValueFacts()
	for _, blk := range ff.cfg.Blocks {
		for _, nd := range blk.Nodes {
			st, ok := fc.atNode[nd]
			if !ok {
				continue // unreachable
			}
			forEachOwnNode(nd, func(n ast.Node) {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok || (bin.Op != token.QUO && bin.Op != token.REM) {
					return
				}
				checkDenominator(pass, ff, fc, st, bin, zeroReturns)
			})
		}
	}
}

func checkDenominator(pass *ModulePass, ff *funcFlow, fc *funcFacts, st factState, bin *ast.BinaryExpr, zeroReturns map[*types.Func]bool) {
	info := ff.pkg.Info
	den := bin.Y
	if tv, ok := info.Types[ast.Unparen(den)]; ok {
		if tv.Value != nil {
			return // constant denominators are the compiler's problem
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
			return
		}
	}
	if fc.exprBits(st, den)&factNonzero != 0 {
		return // proven nonzero on every path reaching this node
	}
	den = unwrapConv(info, ast.Unparen(den))
	if arg := lenCallArg(info, den); arg != nil {
		pass.Reportf(bin.OpPos, "possible division by zero: len(%s) is unguarded; check for emptiness first", types.ExprString(arg))
		return
	}
	id, ok := den.(*ast.Ident)
	if !ok {
		return // field/call denominators: no local evidence, stay quiet
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil || !ff.tracked[v] {
		return
	}
	for _, d := range ff.defsFor(id) {
		if why, bad := zeroEvidence(pass, ff, fc, d, zeroReturns); bad {
			pass.ReportPathf(bin.OpPos, ff.defChain(id, 4),
				"possible division by zero: %s %s; guard the division", id.Name, why)
			return
		}
	}
}

// zeroEvidence reports whether one reaching definition can produce zero,
// with a human-readable reason.
func zeroEvidence(pass *ModulePass, ff *funcFlow, fc *funcFacts, d *defSite, zeroReturns map[*types.Func]bool) (string, bool) {
	info := ff.pkg.Info
	switch d.kind {
	case defZero:
		return "starts at its zero value", true
	case defAssign:
		rhs := unwrapConv(info, ast.Unparen(d.rhs))
		if tv, ok := info.Types[rhs]; ok && tv.Value != nil {
			if v, isInt := constant.Val(tv.Value).(int64); isInt && v == 0 {
				return "is assigned the constant 0", true
			}
			if f, ok := constFloatValue(tv.Value); ok && f == 0 {
				return "is assigned the constant 0", true
			}
			return "", false
		}
		if arg := lenCallArg(info, rhs); arg != nil {
			// A length is evidence unless the def site itself sits under
			// a nonempty guard.
			if st, ok := fc.atNode[d.node]; ok {
				if lv := lenFactVar(info, arg); lv != nil && st[factKey{v: lv, isLen: true}]&factNonzero != 0 {
					return "", false
				}
			}
			return "is assigned len(" + types.ExprString(arg) + ") with no nonempty guard", true
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fn := staticCallee(info, call); fn != nil && mayReturnZero(pass, fn, zeroReturns) {
				return "is assigned from " + prettyFuncName(fn) + ", which can return 0", true
			}
		}
	}
	return "", false
}

func constFloatValue(v constant.Value) (float64, bool) {
	if v.Kind() != constant.Int && v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}

// lenFactVar resolves the variable a len() fact is keyed on.
func lenFactVar(info *types.Info, arg ast.Expr) *types.Var {
	if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	return nil
}

// mayReturnZero reports whether a statically known callee has a `return
// 0` (or zero-constant result) on some path. Memoized per run.
func mayReturnZero(pass *ModulePass, fn *types.Func, cache map[*types.Func]bool) bool {
	fn = fn.Origin()
	if v, ok := cache[fn]; ok {
		return v
	}
	cache[fn] = false // cycle guard
	node := pass.Graph.NodeOf(fn)
	if node == nil {
		return false
	}
	info := node.Pkg.Info
	out := false
	forEachOwnNode(node.Body(), func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || out {
			return
		}
		for _, res := range ret.Results {
			if tv, ok := info.Types[ast.Unparen(res)]; ok && tv.Value != nil {
				if f, ok := constFloatValue(tv.Value); ok && f == 0 {
					out = true
				}
			}
		}
	})
	cache[fn] = out
	return out
}
