package lint

import (
	"go/ast"
)

// RNGDiscipline requires randomness to be constructed through
// internal/stats (stats.NewRNG) rather than raw math/rand constructors,
// so every stream in the module is a named, seeded source. Only
// internal/stats itself may touch math/rand construction.
var RNGDiscipline = &Analyzer{
	Name:      "rngdiscipline",
	Doc:       "require stats.NewRNG instead of raw rand.New/rand.NewSource outside internal/stats",
	RunModule: runRNGDiscipline,
}

func runRNGDiscipline(pass *ModulePass) {
	pass.inspectFiles(func(pkg *Package, n ast.Node) bool {
		if pkg.Path == "harmony/internal/stats" {
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
		pkgPath := importPathOf(pkg, sel.X)
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			return true
		}
		if rngConstructors[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"rand.%s constructs a raw RNG; use stats.NewRNG(seed) so the stream is part of the module's seeded discipline (//harmony:allow rngdiscipline <reason> to permit)",
				sel.Sel.Name)
		}
		return true
	})
}
