package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package — the unit an
// Analyzer runs over.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Loader type-checks packages without golang.org/x/tools: it asks the go
// tool for compiled export data (`go list -export`) and feeds it to the
// standard library's gc importer through a lookup function, so only the
// packages under analysis are type-checked from source.
type Loader struct {
	root string // module root; go list runs here
	fset *token.FileSet

	mu      sync.Mutex
	exports map[string]string         // import path -> export data file
	src     map[string]*types.Package // source-checked fixture packages
	imp     types.Importer
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// NewLoader returns a Loader rooted at the module containing dir (the
// nearest parent with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		root:    root,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		src:     make(map[string]*types.Package),
	}
	gc := importer.ForCompiler(l.fset, "gc", l.lookup)
	// Source-checked fixture packages shadow export data, so fixture
	// trees can import their own sub-packages (see LoadFixtureTree).
	l.imp = importerFunc(func(path string) (*types.Package, error) {
		l.mu.Lock()
		p := l.src[path]
		l.mu.Unlock()
		if p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	return l, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// lookup resolves an import path to its export data, shelling out to
// `go list -export` on first miss (results are cached).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	f, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		if _, err := l.goList(path); err != nil {
			return nil, err
		}
		l.mu.Lock()
		f = l.exports[path]
		l.mu.Unlock()
	}
	if f == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(f)
}

// goList runs `go list -export -deps -json` on the patterns and records
// every export data file it reports.
func (l *Loader) goList(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []*listedPackage
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	l.mu.Lock()
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	l.mu.Unlock()
	return pkgs, nil
}

// Load lists the patterns and returns every non-dependency package,
// parsed and type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		// go list -deps emits dependency order, so by the time an importer
		// is checked its module-internal imports are already registered
		// (see check) — giving one *types.Func identity per function
		// module-wide, which the call graph's byObj lookup depends on for
		// cross-package static dispatch.
		pkg, err := l.check(p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// LoadFixtureTree loads dir and every subdirectory beneath it as fixture
// packages — each directory's .go files parsed and type-checked as one
// package, imports resolved the same way Load does; `go list ./...` skips
// testdata — depth-first so a parent fixture can import its own
// sub-packages by their fixture path (e.g. fixture/detertaint/impure).
// The root package comes first in the result.
func (l *Loader) LoadFixtureTree(dir string) ([]*Package, error) {
	root := "fixture/" + filepath.Base(dir)
	var pkgs []*Package
	var sub func(path, dir string) error
	sub = func(path, dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				if err := sub(path+"/"+e.Name(), filepath.Join(dir, e.Name())); err != nil {
					return err
				}
			}
		}
		pkg, err := l.loadDirAs(path, dir)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	if err := sub(root, dir); err != nil {
		return nil, err
	}
	// Root package first, sub-packages after, both deterministic.
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadDirAs loads the .go files directly inside dir as one package under
// the given import path, registered for import by later fixtures.
func (l *Loader) loadDirAs(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.check(path, dir, files)
}

// check parses files, type-checks them as one package, and registers the
// result so packages checked after it import it from source instead of
// through export data.
func (l *Loader) check(path, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	// Warm the export cache with the whole import closure in one go list
	// run instead of one exec per import.
	var missing []string
	l.mu.Lock()
	for _, af := range asts {
		for _, imp := range af.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if _, srcOK := l.src[p]; srcOK {
				continue // already checked from source
			}
			if _, ok := l.exports[p]; !ok && p != "unsafe" {
				missing = append(missing, p)
			}
		}
	}
	l.mu.Unlock()
	if len(missing) > 0 {
		if _, err := l.goList(missing...); err != nil {
			return nil, err
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, len(typeErrs))
		for i, e := range typeErrs {
			msgs[i] = e.Error()
		}
		return nil, errors.New("lint: type errors:\n\t" + strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.src[path] = tpkg
	l.mu.Unlock()
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: asts, Types: tpkg, Info: info}, nil
}
