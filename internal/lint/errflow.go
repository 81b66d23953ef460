package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow flags discarded errors in production (non-test) code: a call
// whose results include an error used as a bare statement, and blank
// assignments (`_ = f()`, `v, _ := f()`) that throw an error component
// away. A deliberate discard carries `//harmony:allow errflow <reason>`
// on or above the line, so the reason is adjacent to the discard.
//
// Pragmatic exemptions, mirroring the contracts involved:
//   - fmt.Print/Println/Printf/Fprint* — best-effort human output
//   - methods on bytes.Buffer and strings.Builder — documented to never
//     return a non-nil error
//   - deferred calls — deferred cleanup is best-effort by convention;
//     a Close whose error matters must be checked explicitly
var ErrFlow = &Analyzer{
	Name:      "errflow",
	Doc:       "flag unchecked error-returning calls and blank error discards in production packages",
	RunModule: runErrFlow,
}

func runErrFlow(pass *ModulePass) {
	pass.inspectFiles(func(pkg *Package, n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			return false // deferred cleanup is exempt
		case *ast.ExprStmt:
			call, ok := ast.Unparen(st.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := discardedError(pkg.Info, call); ok {
				pass.Reportf(call.Pos(),
					"error result of %s is discarded; handle it or annotate //harmony:allow errflow <reason>",
					name)
			}
		case *ast.GoStmt:
			if name, ok := discardedError(pkg.Info, st.Call); ok {
				pass.Reportf(st.Call.Pos(),
					"error result of %s is discarded by the go statement; collect it (//harmony:allow errflow <reason> to permit)",
					name)
			}
		case *ast.AssignStmt:
			checkBlankErr(pass, pkg.Info, st)
		}
		return true
	})
}

// discardedError reports whether the bare call drops an error result,
// naming the callee for the message.
func discardedError(info *types.Info, call *ast.CallExpr) (name string, drop bool) {
	tv, ok := info.Types[call]
	if !ok || !hasErrorResult(tv.Type) {
		return "", false
	}
	fn := staticCallee(info, call)
	if errFlowExempt(fn) {
		return "", false
	}
	if fn == nil {
		return "the call", true
	}
	return prettyFuncName(fn), true
}

// checkBlankErr flags `_` assignments whose corresponding value is an
// error: `_ = f()`, `v, _ := g()` with g's second result an error.
func checkBlankErr(pass *ModulePass, info *types.Info, as *ast.AssignStmt) {
	// Multi-value form: x, _ := f().
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		tv, ok := info.Types[as.Rhs[0]]
		if !ok {
			return
		}
		tuple, ok := tv.Type.(*types.Tuple)
		if !ok {
			return
		}
		for i, lhs := range as.Lhs {
			if i >= tuple.Len() {
				break
			}
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) && !rhsExempt(info, as.Rhs[0]) {
				pass.Reportf(lhs.Pos(),
					"error discarded into _; handle it or annotate //harmony:allow errflow <reason>")
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isBlank(lhs) {
			continue
		}
		tv, ok := info.Types[as.Rhs[i]]
		if !ok {
			continue
		}
		if isErrorType(tv.Type) && !rhsExempt(info, as.Rhs[i]) {
			pass.Reportf(lhs.Pos(),
				"error discarded into _; handle it or annotate //harmony:allow errflow <reason>")
		}
	}
}

// rhsExempt applies the call exemptions to the assignment form.
func rhsExempt(info *types.Info, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	return ok && errFlowExempt(staticCallee(info, call))
}

// errFlowExempt implements the documented exemptions.
func errFlowExempt(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	owner := named.Obj()
	if owner.Pkg() == nil {
		return false
	}
	switch owner.Pkg().Path() + "." + owner.Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// hasErrorResult reports whether a call result type contains an error:
// a lone error or a tuple with an error component.
func hasErrorResult(t types.Type) bool {
	if isErrorType(t) {
		return true
	}
	tuple, ok := t.(*types.Tuple)
	if !ok {
		return false
	}
	for i := 0; i < tuple.Len(); i++ {
		if isErrorType(tuple.At(i).Type()) {
			return true
		}
	}
	return false
}
