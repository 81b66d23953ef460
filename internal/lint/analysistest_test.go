package lint

// A miniature analysistest: fixture packages under testdata/src/<name>
// carry `// want `regexp`` comments on the lines an analyzer must flag;
// runFixture loads the package tree (subdirectories become importable
// fixture sub-packages, so interprocedural analyzers can be exercised
// across package boundaries), runs the analyzer in fixture mode (the
// scope table bypassed, see InScope; annotation suppression still
// applies), fails on any missed want or unexpected diagnostic, and
// diffs the full findings against the tree's findings.golden.

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// -update rewrites every fixture's findings.golden from the current
// output instead of diffing against it: go test ./internal/lint -update
var update = flag.Bool("update", false, "rewrite fixture findings.golden files from current output")

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error

	treeOnce sync.Once
	treePkgs []*Package
	treeErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// wantRe matches one expectation: a backtick- or double-quoted regexp
// after the `want` marker.
var wantRe = regexp.MustCompile("// want (`[^`]*`|\"[^\"]*\")")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				pat := m[1][1 : len(m[1])-1]
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collect wants: %v", err)
	}
	return wants
}

// runFixture checks one analyzer (or a co-running set, for analyzers
// that depend on each other's bookkeeping, like unusedallow) against the
// named fixture tree. A folded analyzer keeps the trees of both halves:
// detertaint runs over nodeterm's and its own.
func runFixture(t *testing.T, name string, azs ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkgs, err := sharedLoader(t).LoadFixtureTree(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	diags, _ := checkAll(pkgs, azs, false)
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations", dir)
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.line != d.Pos.Line || filepath.Base(w.file) != filepath.Base(d.Pos.Filename) {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no diagnostic", w.file, w.line, w.re)
		}
	}
	checkFindingsGolden(t, dir, diags)
}

// checkFindingsGolden pins what the want regexps leave loose: the exact
// position, analyzer, wording, and witness path of every finding, in
// sorted order, against testdata/src/<name>/findings.golden.
func checkFindingsGolden(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	var sb strings.Builder
	for _, d := range diags {
		file, err := filepath.Rel(dir, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s:%d:%d: %s: %s\n", filepath.ToSlash(file), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		for _, step := range d.Path {
			fmt.Fprintf(&sb, "\t%s\n", step)
		}
	}
	path := filepath.Join(dir, "findings.golden")
	if *update {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := sb.String(); got != string(golden) {
		t.Errorf("findings drifted from %s (run with -update to regenerate):\n%s", path, firstDiff(string(golden), got))
	}
}

func TestNoDetermFixture(t *testing.T)   { runFixture(t, "nodeterm", DeterTaint) }
func TestSortedEmitFixture(t *testing.T) { runFixture(t, "sortedemit", SortedEmit) }
func TestFloatEqFixture(t *testing.T)    { runFixture(t, "floateq", FloatEq) }
func TestDeterTaintFixture(t *testing.T) { runFixture(t, "detertaint", DeterTaint) }
func TestDeferCloseFixture(t *testing.T) { runFixture(t, "deferclose", DeferClose) }
func TestErrFlowFixture(t *testing.T)    { runFixture(t, "errflow", ErrFlow) }
func TestDivZeroFixture(t *testing.T)    { runFixture(t, "divzero", DivZero) }
func TestNaNSourceFixture(t *testing.T)  { runFixture(t, "nansource", NaNSource) }

// unusedallow consumes the other analyzers' suppression bookkeeping, so
// its fixture co-runs floateq: one allow in the fixture suppresses a real
// floateq finding (used), one suppresses nothing (stale, flagged).
func TestUnusedAllowFixture(t *testing.T) { runFixture(t, "unusedallow", UnusedAllow, FloatEq) }

// TestTreeClean is the in-test twin of `harmony-lint ./...`: the whole
// module must be free of findings (modulo annotations), so a reverted fix
// or a new violation fails `go test` as well as the lint CI job.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs := loadTree(t)
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, d := range Check(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestScopes pins the production scope table: which packages each named
// scope covers.
func TestScopes(t *testing.T) {
	production := &ModulePass{scoped: true}
	for _, c := range []struct {
		scope Scope
		pkg   string
		want  bool
	}{
		{ScopeDeterministic, "harmony/internal/sim", true},
		{ScopeDeterministic, "harmony/internal/daemon", true},
		{ScopeDeterministic, "harmony/cmd/harmonyd", true},
		{ScopeDeterministic, "harmony/internal/forecast", true},
		{ScopeDeterministic, "harmony/internal/classify", true},
		{ScopeDeterministic, "harmony/internal/kmeans", true},
		{ScopeDeterministic, "harmony/internal/trace", true},
		{ScopeDeterministic, "harmony/internal/sched", true},
		{ScopeDeterministic, "harmony/internal/stats", false},

		// The lock scope: the daemon, the tenant fan-out, the mutex
		// owners and harmonyd's tickers and files.
		{ScopeRelease, "harmony/internal/daemon", true},
		{ScopeRelease, "harmony/internal/tenant", true},
		{ScopeRelease, "harmony/internal/metrics", true},
		{ScopeRelease, "harmony/cmd/harmonyd", true},
		{ScopeRelease, "harmony/internal/sim", false},
		{ScopeRelease, "harmony/internal/trace", false},
		{ScopeRelease, "harmony/internal/stats", false},
		{ScopeRelease, "harmony/internal/core", false},

		// The value-flow analyzers share the numeric surface (the
		// energy→cost and demand chains).
		{ScopeNumeric, "harmony/internal/energy", true},
		{ScopeNumeric, "harmony/internal/tenant", true},
		{ScopeNumeric, "harmony/internal/core", true},
		{ScopeNumeric, "harmony/internal/queueing", true},
		{ScopeNumeric, "harmony/internal/forecast", true},
		{ScopeNumeric, "harmony/internal/sched", true},
		{ScopeNumeric, "harmony/internal/trace", true},
		{ScopeNumeric, "harmony/internal/classify", true},
		{ScopeNumeric, "harmony/internal/stats", true},
		{ScopeNumeric, "harmony/internal/lp", true},
		{ScopeNumeric, "harmony/internal/kmeans", true},
		{ScopeNumeric, "harmony/internal/binpack", true},
		{ScopeNumeric, "harmony/internal/container", true},
		{ScopeNumeric, "harmony/internal/daemon", false},
		{ScopeNumeric, "harmony/internal/metrics", false},
	} {
		if got := production.InScope(c.scope, c.pkg); got != c.want {
			t.Errorf("InScope(%d, %q) = %v, want %v", c.scope, c.pkg, got, c.want)
		}
	}

	// Fixture mode bypasses the table: the root package is in every
	// scope, its sub-packages (detertaint's impure/pure) in none.
	fixture := &ModulePass{Pkgs: []*Package{{Path: "fixture/detertaint"}}}
	for s := range scopeTable {
		if !fixture.InScope(s, "fixture/detertaint") ||
			fixture.InScope(s, "fixture/detertaint/impure") ||
			fixture.InScope(s, "harmony/internal/daemon") {
			t.Errorf("fixture-mode InScope wrong for scope %d", s)
		}
	}
}

func TestByName(t *testing.T) {
	azs, err := ByName([]string{"floateq", "deferclose", "detertaint"})
	if err != nil || len(azs) != 3 {
		t.Fatalf("ByName: %v %v", azs, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	names := map[string]bool{}
	for _, az := range All() {
		if az.Name == "" || az.Doc == "" {
			t.Errorf("analyzer %+v incomplete", az)
		}
		if az.RunModule == nil && az != UnusedAllow {
			t.Errorf("analyzer %s has no RunModule", az.Name)
		}
		if names[az.Name] {
			t.Errorf("duplicate analyzer name %s", az.Name)
		}
		names[az.Name] = true
	}
}

// TestAllowGrammar pins the annotation grammar: an annotation binds to
// its own line, the line below, and — through a contiguous comment block
// — the first code line after the block; mismatched analyzer names never
// match, and consultation marks the annotation used.
func TestAllowGrammar(t *testing.T) {
	ann := &allowAnn{analyzer: "floateq", pos: token.Position{Filename: "f.go", Line: 10}}
	set := &allowSet{byLine: map[string]map[int][]*allowAnn{}, anns: []*allowAnn{ann}}
	set.bind(ann, 10)
	set.bind(ann, 11)
	for _, c := range []struct {
		line int
		name string
		want bool
	}{
		{10, "floateq", true},  // same line
		{11, "floateq", true},  // line below the comment
		{12, "floateq", false}, // too far
		{10, "detertaint", false},
	} {
		pos := token.Position{Filename: "f.go", Line: c.line}
		if got := set.allows(c.name, pos); got != c.want {
			t.Errorf("allows(%s, line %d) = %v, want %v", c.name, c.line, got, c.want)
		}
	}
	if !ann.used {
		t.Error("matching consultation should mark the annotation used")
	}
}

// firstDiff returns a short context around the first differing line.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}
