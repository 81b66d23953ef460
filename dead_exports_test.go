package harmony

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
	"testing"

	"harmony/internal/lint"
)

// calledOnlyByTests lists the exported library functions and methods that
// no non-test code uses, each with the reason it stays.
var calledOnlyByTests = map[string]string{
	"stats.TruncNormal":            "test baseline: container's empirical-violation test draws task demands from it",
	"stats.(*CDF).P":               "oracle the cdf tests check Quantile against",
	"core.(*Decision).TotalActive": "the controller tests' reading of a decision's fleet size",
	"metrics.(*Histogram).Count":   "the metrics tests' reading of how many observations a histogram took",
	"forecast.Naive":               "test baseline the ARIMA and seasonal forecasters must beat",
	"forecast.MovingAverage":       "test baseline in the Holt-Winters backtest comparison",
	"forecast.Backtest":            "test harness that scores the forecasters against those baselines",
	"lp.SolveWarm":                 "the lp tests' entry point: builds the standard form and solves it in one call",
	"tenant.Replay":                "batch reference the multi-tenant e2e tests compare against",
}

// TestLibraryExportsHaveCallers keeps the library packages down to what
// the pipeline uses: every exported function or method declared in their
// non-test files must be used by non-test code of the module or of the
// nested benchmark module. Uses are resolved through go/types, so a
// same-named identifier elsewhere does not keep a dead one alive. A
// method also counts as used when its type implements an interface that
// non-test code names or calls through, and that interface has the method
// (energy.FlatPrice.At is called through energy.Price).
func TestLibraryExportsHaveCallers(t *testing.T) {
	libs := map[string]bool{}
	for _, p := range []string{"stats", "binpack", "kmeans", "container", "queueing", "energy", "forecast", "trace", "metrics", "classify", "core", "daemon", "lp", "sched", "sim", "tenant"} {
		libs["harmony/internal/"+p] = true
	}
	root, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := loadModule("benchmark")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{} // types.Func.FullName of every function or method used
	// "path.Name" of every interface named or called through; fmt calls
	// String through fmt.Stringer on whatever it formats, and net/http
	// ServeHTTP through http.Handler on whatever it serves.
	ifaces := map[string]bool{"fmt.Stringer": true, "net/http.Handler": true}
	for _, pkgs := range [][]*lint.Package{root, bench} {
		for _, p := range pkgs {
			collectUses(p.Info, used, ifaces)
		}
	}
	// The interfaces in use, resolved among the packages the module imports.
	universe := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if universe[p.Path()] == nil {
			universe[p.Path()] = p
			for _, imp := range p.Imports() {
				walk(imp)
			}
		}
	}
	for _, p := range root {
		walk(p.Types)
	}
	var inUse []*types.Interface
	for key := range ifaces {
		scope := types.Universe
		dot := strings.LastIndex(key, ".")
		if dot >= 0 {
			p := universe[key[:dot]]
			if p == nil {
				continue
			}
			scope = p.Scope()
		}
		if tn, ok := scope.Lookup(key[dot+1:]).(*types.TypeName); ok {
			inUse = append(inUse, tn.Type().Underlying().(*types.Interface))
		}
	}

	for _, p := range root {
		if !libs[p.Path] {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				name := displayName(fn)
				live := used[fn.FullName()] || implementsInUse(fn, inUse)
				if _, kept := calledOnlyByTests[name]; !live && !kept {
					t.Errorf("%s has no caller outside tests: delete it, or list it in calledOnlyByTests with the reason it stays", name)
				} else if live && kept {
					t.Errorf("%s is listed in calledOnlyByTests but non-test code uses it: drop the entry", name)
				}
			}
		}
	}
}

// loadModule type-checks the non-test packages of the module rooted at dir.
func loadModule(dir string) ([]*lint.Package, error) {
	l, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	return l.Load("./...")
}

// collectUses records every function or method an identifier refers to,
// and every interface type named or called through.
func collectUses(info *types.Info, used, ifaces map[string]bool) {
	for _, obj := range info.Uses {
		switch obj := obj.(type) {
		case *types.Func:
			used[obj.Origin().FullName()] = true
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				if n, ok := recv.Type().(*types.Named); ok && types.IsInterface(n) {
					ifaces[typeKey(n.Obj())] = true
				}
			}
		case *types.TypeName:
			if types.IsInterface(obj.Type()) {
				ifaces[typeKey(obj)] = true
			}
		}
	}
}

// typeKey is "path.Name", or the bare name of a predeclared type (error).
func typeKey(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// implementsInUse reports whether fn is a method its receiver type needs
// to satisfy one of the interfaces in use.
func implementsInUse(fn *types.Func, inUse []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	for _, iface := range inUse {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(t, iface) {
				return true
			}
		}
	}
	return false
}

// displayName spells fn the way calledOnlyByTests keys it:
// "pkg.Func", "pkg.T.Method" or "pkg.(*T).Method".
func displayName(fn *types.Func) string {
	pkg := path.Base(fn.Pkg().Path())
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		return pkg + ".(*" + ptr.Elem().(*types.Named).Obj().Name() + ")." + fn.Name()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
