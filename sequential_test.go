package harmony

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOfflinePathIsSequential pins "sequential by construction": no
// non-test file of the facade, the simulator, the policies and their one
// constructor (sched), the controller, the trace sources or the
// characterization (kmeans, classify) has a go statement or imports a
// synchronization package, so nothing is spawned and there is nothing to
// wait on; sim, sched, core, kmeans and classify cannot read the
// machine's parallelism either. A trace source is read by one
// goroutine, the simulator's.
func TestOfflinePathIsSequential(t *testing.T) {
	banned := map[string][]string{
		".":                 {"sync", "sync/atomic"},
		"internal/sim":      {"sync", "sync/atomic", "runtime"},
		"internal/sched":    {"sync", "sync/atomic", "runtime"},
		"internal/core":     {"sync", "sync/atomic", "runtime"},
		"internal/trace":    {"sync", "sync/atomic"},
		"internal/kmeans":   {"sync", "sync/atomic", "runtime"},
		"internal/classify": {"sync", "sync/atomic", "runtime"},
	}
	for dir, pkgs := range banned {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement: the offline path is single-goroutine", fset.Position(g.Go))
				}
				return true
			})
			for _, imp := range f.Imports {
				name, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range pkgs {
					if name == b {
						t.Errorf("%s imports %q: the offline path is single-goroutine", path, name)
					}
				}
			}
		}
	}
}

// TestOneControllerAssembly pins the single assembly of Algorithm 1: in
// the module's non-test code sched.NewHarmony and classify.NewLabeler are
// each called once, by sched.NewLoop, the constructor the facade and
// harmonyd share. (The nested benchmark module keeps copies of its own.)
func TestOneControllerAssembly(t *testing.T) {
	calls := map[string][]string{
		"harmony/internal/sched.NewHarmony":    nil,
		"harmony/internal/classify.NewLabeler": nil,
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		self := "harmony"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			self += "/" + dir
		}
		imported := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				callee = self + "." + fun.Name
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && imported[x.Name] != "" {
					callee = imported[x.Name] + "." + fun.Sel.Name
				}
			}
			if sites, ok := calls[callee]; ok {
				calls[callee] = append(sites, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for callee, sites := range calls {
		if len(sites) != 1 {
			t.Errorf("%s is called at %d places outside tests, want 1 (sched.NewLoop): %v", callee, len(sites), sites)
		}
	}
}
