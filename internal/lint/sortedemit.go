package lint

import (
	"go/ast"
	"go/types"
)

// SortedEmit flags `for range` over a map whose body writes output (fmt
// emission or Write* methods on builders, buffers, and writers). Go map
// iteration order is random, so emitting inside such a loop produces
// nondeterministic bytes — collect the keys, sort, and iterate the sorted
// slice instead (the pattern metrics.Render and the figure writers use).
var SortedEmit = &Analyzer{
	Name:      "sortedemit",
	Doc:       "flag map iteration that emits output without sorting first",
	RunModule: runSortedEmit,
}

// emitFuncs are package-level functions that write formatted output.
var emitFuncs = map[string]map[string]bool{
	"fmt": {
		"Fprint": true, "Fprintf": true, "Fprintln": true,
		"Print": true, "Printf": true, "Println": true,
	},
	"io": {"WriteString": true},
}

// emitMethods are method names that append to an output sink.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runSortedEmit(pass *ModulePass) {
	pass.inspectFiles(func(pkg *Package, n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pkg.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if emit := findEmit(pkg, rng.Body); emit != nil {
			pass.Reportf(rng.Pos(),
				"map iteration emits output (%s at line %d); map order is random — collect keys, sort, then emit (//harmony:allow sortedemit <reason> to permit)",
				emitName(pkg, emit), pkg.Fset.Position(emit.Pos()).Line)
		}
		return true
	})
}

// findEmit returns the first output-writing call inside body, or nil.
func findEmit(pkg *Package, body ast.Node) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkgPath := importPathOf(pkg, sel.X); pkgPath != "" {
			if emitFuncs[pkgPath][sel.Sel.Name] {
				found = call
			}
			return true
		}
		// Method call: Write-family methods on any value count as sinks.
		if emitMethods[sel.Sel.Name] {
			found = call
		}
		return true
	})
	return found
}

func emitName(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pkgPath := importPathOf(pkg, sel.X); pkgPath != "" {
			return pathBase(pkgPath) + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return "write"
}
