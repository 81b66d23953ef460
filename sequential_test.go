package harmony

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOfflinePathIsSequential pins "sequential by construction": no
// non-test file of the facade, the simulator or the controller imports a
// synchronization package — there is nothing to wait on, so nothing is
// spawned — and sim and core cannot read the machine's parallelism either.
// Imports only, so it costs a parse.
func TestOfflinePathIsSequential(t *testing.T) {
	banned := map[string][]string{
		".":             {"sync", "sync/atomic"},
		"internal/sim":  {"sync", "sync/atomic", "runtime"},
		"internal/core": {"sync", "sync/atomic", "runtime"},
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
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
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
