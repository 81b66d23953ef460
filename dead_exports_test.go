package harmony

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// calledOnlyByTests lists the exported library functions that no non-test
// code names, each with the reason it stays.
var calledOnlyByTests = map[string]string{
	"stats.TruncNormal":      "test baseline: container's empirical-violation test draws task demands from it",
	"forecast.Naive":         "test baseline the ARIMA and seasonal forecasters must beat",
	"forecast.MovingAverage": "test baseline in the Holt-Winters backtest comparison",
	"forecast.Backtest":      "test harness that scores the forecasters against those baselines",
}

// TestLibraryExportsHaveCallers keeps the library packages down to what
// the pipeline calls: every exported function or method in their non-test
// files must be named by non-test code — pkg.Name anywhere in the module
// (benchmark/, cmd/ and examples/ count), the bare name inside its own
// package, .Name anywhere for a method. Syntax only, so a same-named
// method elsewhere can hide a dead one; it cannot flag a live one.
func TestLibraryExportsHaveCallers(t *testing.T) {
	libs := map[string]bool{}
	for _, p := range []string{"stats", "binpack", "kmeans", "container", "queueing", "energy", "forecast", "trace", "metrics"} {
		libs[filepath.Join("internal", p)] = true
	}
	named := map[string]int{} // "pkg.Name", "dir:Name" and ".Name" → mentions
	var exported [][2]string  // {pkg.Name, where a caller inside the package would show up in named}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				named[dir+":"+n.Name]++
			case *ast.SelectorExpr:
				named["."+n.Sel.Name]++
				if x, ok := n.X.(*ast.Ident); ok {
					named[x.Name+"."+n.Sel.Name]++
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && libs[dir] && fn.Name.IsExported() {
				inPkg := dir + ":" + fn.Name.Name
				named[inPkg]-- // the declaration itself
				if fn.Recv != nil {
					inPkg = "." + fn.Name.Name
				}
				exported = append(exported, [2]string{filepath.Base(dir) + "." + fn.Name.Name, inPkg})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exported {
		live := named[e[0]] > 0 || named[e[1]] > 0
		if _, kept := calledOnlyByTests[e[0]]; !live && !kept {
			t.Errorf("%s has no caller outside tests: delete it, or list it in calledOnlyByTests with the reason it stays", e[0])
		} else if live && kept {
			t.Errorf("%s is listed in calledOnlyByTests but non-test code names it: drop the entry", e[0])
		}
	}
}
