// Package lint implements harmony-lint: a suite of static analyzers that
// mechanically enforce the codebase's determinism and concurrency
// contracts — the conventions (no wall-clock, environment or global-RNG
// reads in control paths, sorted iteration before any output,
// tolerance-based float comparison, resources released on every path,
// no blocking calls under a mutex) that the bit-identical simulation and
// replay guarantees rest on.
//
// The framework mirrors golang.org/x/tools/go/analysis in miniature but
// is dependency-free: packages are loaded through `go list -export` plus
// the standard library's gc importer (see Loader), and every Analyzer is
// one whole-module pass (RunModule) over the loaded packages plus the
// module call graph (see Graph), whose nodes cache the per-function
// facts — CFG, locksets, def-use flow — the flow-sensitive analyzers
// share. Production scoping goes through one table (see Scope).
//
// A finding can be silenced in place with an annotation on the flagged
// line, at the end of it, or in the contiguous comment block directly
// above it:
//
//	//harmony:allow <analyzer> [reason...]
//
// The reason is free text; the analyzer name must match exactly. The
// unusedallow analyzer reports annotations that no longer suppress
// anything, so suppressions cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding. Path, when non-empty, is the call-chain
// witness of an interprocedural finding, outermost caller first.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Path     []string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check: RunModule runs once over every loaded
// package with the module call graph. unusedallow sets none and is
// special-cased in checkAll because it consumes the other analyzers'
// suppression usage.
type Analyzer struct {
	Name string
	Doc  string

	RunModule func(*ModulePass)
}

// ModulePass carries one analyzer run over every loaded package.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package
	Graph    *Graph

	scoped bool // false in fixture mode: see InScope
	allows *allowSet
	diags  []Diagnostic
}

// Fset returns the shared file set of the loaded packages.
func (p *ModulePass) Fset() *token.FileSet { return p.Pkgs[0].Fset }

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.ReportPathf(pos, nil, format, args...)
}

// ReportPathf records a finding at pos carrying a call-chain witness.
func (p *ModulePass) ReportPathf(pos token.Pos, path []string, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset().Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// Allowed reports whether an annotation suppresses this analyzer at pos.
// Analyzers use it to let a vetted //harmony:allow at a taint root stop
// propagation instead of merely hiding the boundary diagnostic.
func (p *ModulePass) Allowed(pos token.Pos) bool {
	return p.allows.allows(p.Analyzer.Name, p.Fset().Position(pos))
}

// inspectFiles walks every file of every loaded package, ast.Inspect
// style, for the analyzers that need no call graph.
func (p *ModulePass) inspectFiles(visit func(pkg *Package, n ast.Node) bool) {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool { return visit(pkg, n) })
		}
	}
}

// Check runs the analyzers over the packages, honoring the production
// scope table and the //harmony:allow annotations, and returns the
// surviving diagnostics sorted by position.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ds, _ := checkAll(pkgs, analyzers, true)
	return ds
}

// AnalyzerTiming is one analyzer's wall-clock cost in a CheckTimed run.
// Shared per-function facts are charged to whichever analyzer asks first.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// CheckTimed is Check plus per-analyzer wall-clock timings in run order.
func CheckTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming) {
	return checkAll(pkgs, analyzers, true)
}

// checkAll is the shared engine behind Check, CheckTimed, and the
// fixture runner. When scoped is false the scope table is bypassed
// (fixture mode, see InScope); allow annotations are honored either way.
//
// Analyzers run one after another over one call graph, so the facts an
// earlier analyzer built on a Node (see nodeFacts) are there for the
// later ones. unusedallow reports the annotations nothing else consumed,
// so it runs last.
func checkAll(pkgs []*Package, analyzers []*Analyzer, scoped bool) ([]Diagnostic, []AnalyzerTiming) {
	allows := collectAllows(pkgs...)
	g := BuildGraph(pkgs)
	ran := make(map[string]bool)
	unused := false
	var out []Diagnostic
	var timings []AnalyzerTiming
	for _, az := range analyzers {
		if az == UnusedAllow {
			unused = true
			continue
		}
		ran[az.Name] = true
		start := time.Now()
		pass := &ModulePass{Analyzer: az, Pkgs: pkgs, Graph: g, scoped: scoped, allows: allows}
		az.RunModule(pass)
		for _, d := range pass.diags {
			if !allows.allows(az.Name, d.Pos) {
				out = append(out, d)
			}
		}
		timings = append(timings, AnalyzerTiming{Name: az.Name, Elapsed: time.Since(start)})
	}

	if unused {
		for _, ann := range allows.anns {
			if ann.used || !ran[ann.analyzer] {
				continue
			}
			d := Diagnostic{
				Pos:      ann.pos,
				Analyzer: UnusedAllow.Name,
				Message: fmt.Sprintf(
					"//harmony:allow %s suppresses nothing; delete the stale annotation",
					ann.analyzer),
			}
			if allows.allows(UnusedAllow.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}

	sortDiagnostics(out)
	return out, timings
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// allowAnn is one //harmony:allow annotation, with its consumption state:
// an annotation never consulted by a matching diagnostic is stale, which
// unusedallow reports.
type allowAnn struct {
	analyzer string
	pos      token.Position // annotation site
	used     bool
}

// allowSet indexes annotations by the lines they bind to. An annotation
// binds to its own line (covering end-of-line annotations and, for
// compatibility, the line below) and to the first line after its
// enclosing contiguous comment block — so a regular // comment between
// the annotation and the flagged code does not break the binding.
type allowSet struct {
	byLine map[string]map[int][]*allowAnn // file -> bound line -> annotations
	anns   []*allowAnn                    // collection order, for unusedallow
}

// allows reports whether a diagnostic from the named analyzer at pos is
// suppressed, marking the matching annotation as used.
func (a *allowSet) allows(name string, pos token.Position) bool {
	hit := false
	for _, ann := range a.byLine[pos.Filename][pos.Line] {
		if ann.analyzer == name {
			ann.used = true
			hit = true
		}
	}
	return hit
}

const allowPrefix = "harmony:allow"

// commentDirective strips the comment syntax from c and, when the result
// starts with the given marker, returns the remainder (the marker's
// arguments) and true.
func commentDirective(c *ast.Comment, marker string) (string, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
	if text != marker && !strings.HasPrefix(text, marker+" ") {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, marker)), true
}

// collectAllows scans every comment in the packages for allow annotations.
func collectAllows(pkgs ...*Package) *allowSet {
	set := &allowSet{byLine: make(map[string]map[int][]*allowAnn)}
	seen := make(map[string]bool) // file:line:analyzer, dedup
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				groupEnd := pkg.Fset.Position(cg.End()).Line
				for _, c := range cg.List {
					args, ok := commentDirective(c, allowPrefix)
					if !ok {
						continue
					}
					fields := strings.Fields(args)
					if len(fields) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					// Only the first field is the analyzer name; the rest
					// is a free-text reason.
					key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, fields[0])
					if seen[key] {
						continue
					}
					seen[key] = true
					ann := &allowAnn{analyzer: fields[0], pos: pos}
					set.anns = append(set.anns, ann)
					set.bind(ann, pos.Line)
					set.bind(ann, pos.Line+1)
					// Bind through the rest of a contiguous comment block:
					// the annotation still covers the first code line after
					// the block even when ordinary comments follow it.
					if groupEnd+1 > pos.Line+1 {
						set.bind(ann, groupEnd+1)
					}
				}
			}
		}
	}
	return set
}

func (a *allowSet) bind(ann *allowAnn, line int) {
	lines := a.byLine[ann.pos.Filename]
	if lines == nil {
		lines = make(map[int][]*allowAnn)
		a.byLine[ann.pos.Filename] = lines
	}
	lines[line] = append(lines[line], ann)
}

// All returns every analyzer in the suite, sorted by name.
func All() []*Analyzer {
	return []*Analyzer{
		DeferClose,
		DeterTaint,
		DivZero,
		ErrFlow,
		FloatEq,
		NaNSource,
		SortedEmit,
		UnusedAllow,
	}
}

// ByName returns the named analyzers, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, az := range All() {
		byName[az.Name] = az
	}
	var out []*Analyzer
	for _, n := range names {
		az, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, az)
	}
	return out, nil
}

// UnusedAllow reports //harmony:allow annotations that no longer
// suppress any finding of the analyzers being run, so suppressions
// cannot rot silently after the code they excused is fixed or deleted.
// It consumes the other analyzers' suppression bookkeeping, runs last,
// and only considers annotations naming an analyzer in the current run.
var UnusedAllow = &Analyzer{
	Name: "unusedallow",
	Doc:  "report //harmony:allow annotations that no longer suppress any finding",
}
