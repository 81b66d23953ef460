package harmony

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOfflinePathIsSequential pins "sequential by construction": no
// non-test file of the facade, the simulator, the controller, the trace
// sources or the characterization (kmeans, classify) has a go statement or
// imports a synchronization package, so nothing is spawned and there is
// nothing to wait on; sim, core, kmeans and classify cannot read the
// machine's parallelism either. A trace source is read by one
// goroutine, the simulator's.
func TestOfflinePathIsSequential(t *testing.T) {
	banned := map[string][]string{
		".":                 {"sync", "sync/atomic"},
		"internal/sim":      {"sync", "sync/atomic", "runtime"},
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
