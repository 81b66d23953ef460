package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// FloatEq flags == and != between floating-point values. Exact float
// equality silently diverges across refactors that reassociate
// arithmetic; comparisons belong in a tolerance helper. Three idioms stay
// legal: comparison against an exact-zero constant (sentinel checks),
// fully constant comparisons, and self-comparison (the x != x NaN test),
// plus anything inside a function whose name marks it as a tolerance
// helper (approx/almost/near/tol/close).
var FloatEq = &Analyzer{
	Name:      "floateq",
	Doc:       "flag ==/!= on floats outside tolerance helpers",
	RunModule: runFloatEq,
}

var toleranceFunc = regexp.MustCompile(`(?i)(approx|almost|near|tol|close)`)

func runFloatEq(pass *ModulePass) {
	pass.inspectFiles(func(pkg *Package, n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && toleranceFunc.MatchString(fd.Name.Name) {
			return false
		}
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xt, yt := pkg.Info.Types[be.X], pkg.Info.Types[be.Y]
		if !isFloat(xt.Type) && !isFloat(yt.Type) {
			return true
		}
		if xt.Value != nil && yt.Value != nil {
			return true // fully constant, decided at compile time
		}
		if isZeroConst(xt.Value) || isZeroConst(yt.Value) {
			return true // exact-zero sentinel check
		}
		if types.ExprString(be.X) == types.ExprString(be.Y) {
			return true // x != x NaN idiom
		}
		pass.Reportf(be.OpPos,
			"float %s comparison; use a tolerance helper or compare against an exact-zero sentinel (//harmony:allow floateq <reason> to permit)",
			be.Op)
		return true
	})
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isZeroConst(v constant.Value) bool {
	if v == nil {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(v))
	return ok && f == 0
}
