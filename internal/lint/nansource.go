package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NaNSource flags expressions that can mint NaN or ±Inf and flow into
// plan/cost outputs without a validation guard: math.Sqrt of a value
// with no non-negativity proof, math.Log (and Log2/Log10/Log1p) of a
// value with no positivity proof, and the x/x shape where x may be zero
// (0/0 is NaN even in float arithmetic, where divzero stays quiet).
// Proofs come from the flow-sensitive fact engine, so a dominating
// `if x <= 0 { return ... }` guard silences the finding, as does an
// explicit math.IsNaN/math.IsInf check on the result variable anywhere
// in the function. This complements the ingest-side NaN hardening:
// ingest rejects poisoned inputs, nansource keeps the control path from
// manufacturing its own.
var NaNSource = &Analyzer{
	Name:      "nansource",
	Doc:       "report expressions that can mint NaN/Inf (log/sqrt of unvalidated input, 0/0) without a guard",
	RunModule: runNaNSource,
}

func runNaNSource(pass *ModulePass) {
	for _, n := range pass.Graph.Funcs {
		if pass.InScope(ScopeNumeric, n.Pkg.Path) {
			checkNaNSource(pass, n)
		}
	}
}

// nanLogFuncs need a strictly positive argument.
var nanLogFuncs = map[string]bool{"Log": true, "Log2": true, "Log10": true, "Log1p": true}

func checkNaNSource(pass *ModulePass, fn *Node) {
	ff, fc := fn.Flow(), fn.ValueFacts()
	info := fn.Pkg.Info
	guarded := nanGuardedVars(fn, info)
	for _, blk := range ff.cfg.Blocks {
		for _, nd := range blk.Nodes {
			st, ok := fc.atNode[nd]
			if !ok {
				continue // unreachable
			}
			if resultVarGuarded(info, nd, guarded) {
				continue
			}
			sink := ""
			if _, ok := nd.(*ast.ReturnStmt); ok {
				sink = " and flows into a return"
			}
			forEachOwnNode(nd, func(n ast.Node) {
				switch x := n.(type) {
				case *ast.CallExpr:
					checkNaNCall(pass, ff, fc, st, x, sink)
				case *ast.BinaryExpr:
					checkSelfDivide(pass, ff, fc, st, x, sink)
				}
			})
		}
	}
}

func checkNaNCall(pass *ModulePass, ff *funcFlow, fc *funcFacts, st factState, call *ast.CallExpr, sink string) {
	info := ff.pkg.Info
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" || len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	bits := fc.exprBits(st, arg)
	switch {
	case fn.Name() == "Sqrt":
		if bits&factNonneg != 0 {
			return
		}
		pass.ReportPathf(call.Lparen, ff.witness(arg),
			"math.Sqrt of %s, which is not provably non-negative, can mint NaN%s; validate or clamp first",
			types.ExprString(arg), sink)
	case nanLogFuncs[fn.Name()]:
		if bits&factPositive == factPositive {
			return
		}
		pass.ReportPathf(call.Lparen, ff.witness(arg),
			"math.%s of %s, which is not provably positive, can mint NaN/-Inf%s; validate first",
			fn.Name(), types.ExprString(arg), sink)
	}
}

// checkSelfDivide reports x/x where x may be zero: the one float
// division shape that is NaN rather than Inf, and a classic
// normalization bug (ratio of an unpopulated accumulator to itself).
func checkSelfDivide(pass *ModulePass, ff *funcFlow, fc *funcFacts, st factState, bin *ast.BinaryExpr, sink string) {
	info := ff.pkg.Info
	if bin.Op != token.QUO {
		return
	}
	tv, ok := info.Types[bin]
	if !ok {
		return
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	lx, rx := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if types.ExprString(lx) != types.ExprString(rx) {
		return
	}
	if fc.exprBits(st, rx)&factNonzero != 0 {
		return
	}
	pass.ReportPathf(bin.OpPos, ff.witness(rx),
		"%s / %s is NaN when %s is zero, and it is not provably nonzero%s; guard the division",
		types.ExprString(lx), types.ExprString(rx), types.ExprString(rx), sink)
}

// nanGuardedVars collects variables the function explicitly checks with
// math.IsNaN or math.IsInf — results it validates are its own business.
func nanGuardedVars(fn *Node, info *types.Info) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(fn.Body(), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "math" {
			return true
		}
		if callee.Name() != "IsNaN" && callee.Name() != "IsInf" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						out[v] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// resultVarGuarded reports whether the node assigns into a variable the
// function later validates with math.IsNaN/IsInf.
func resultVarGuarded(info *types.Info, nd ast.Node, guarded map[*types.Var]bool) bool {
	if len(guarded) == 0 {
		return false
	}
	as, ok := nd.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for _, lhs := range as.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			v, _ := info.Uses[id].(*types.Var)
			if v == nil {
				v, _ = info.Defs[id].(*types.Var)
			}
			if v != nil && guarded[v] {
				return true
			}
		}
	}
	return false
}
