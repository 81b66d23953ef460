package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one realistic slip in the module's own sources and the exact
// set of analyzers that must flag it. Fixtures show what an analyzer
// flags in code written for it; this table shows that on the tree it
// guards each analyzer still catches the slip it exists for, and that no
// other analyzer has started to object.
type mutant struct {
	name  string
	edits []edit
	want  []string
}

// edit replaces old, which must occur exactly once, in one module file.
type edit struct{ file, old, new string }

// A field written outside its mutex is not a row: `go test -race` pins
// those slips. tenant.TestConcurrentTickIngestSnapshot fails when a
// tenant's arrival window is reset after ts.mu is released, and
// daemon.TestTickDeadlinePublishesLate when the late solve writes its tick
// seconds or its plan outside e.mu. Nor is an allocation on the tick or event path:
// the testing.AllocsPerRun lids pin those (sched.TestPeriodScratchReuse
// when the tick allocates its initial-state buffer,
// lp.TestPivotLoopsAllocOnlyEtas, core.TestPlacementMergeAllocFree,
// trace.TestSliceSourceNextAllocFree, sim.TestEventLoopSteadyStateAllocFree).
// Nor is a goroutine slip: the leak checks in the daemon and tenant
// TestMains fail the package when a goroutine running module code
// outlives the tests, and a join that never comes fails a named test
// through a bounded wait (TestLaneCloseDrainsAndJoins,
// TestStreamingMatchesBatchReplay, TestTickErrorKeepsLastPlan,
// tenant.TestN1BitIdentical).
var mutationTable = []mutant{
	{"ticker is never stopped", []edit{{"internal/tenant/run.go",
		"ticker := time.NewTicker(cfg.TickEvery)\n\t\tdefer ticker.Stop()\n",
		"ticker := time.NewTicker(cfg.TickEvery)\n"}},
		[]string{"deferclose"}},
	{"early return skips the group unlock", []edit{{"internal/tenant/multi.go",
		"g.mu.Lock()\n\tcost := 0.0",
		"g.mu.Lock()\n\tif len(plan.Machines) == 0 {\n\t\treturn\n\t}\n\tcost := 0.0"}},
		[]string{"deferclose"}},
	{"tick observation stamped with the wall clock", []edit{{"internal/daemon/engine.go",
		"Time:     now,",
		"Time:     float64(time.Now().Unix()),"}},
		[]string{"detertaint"}},
	// Taint through a helper outside the deterministic packages: the
	// simulator's delay reservoir, the helper's caller, is flagged.
	{"delay reservoir seeded from the clock", []edit{
		{"internal/stats/reservoir.go",
			"package stats\n\n// Reservoir is",
			"package stats\n\nimport \"time\"\n\n// Reservoir is"},
		{"internal/stats/reservoir.go",
			"\tif k < 1 {\n\t\tk = 1\n\t}\n",
			"\tif k < 1 {\n\t\tk = 1\n\t}\n\tif seed == 0 {\n\t\tseed = time.Now().UnixNano()\n\t}\n"}},
		[]string{"detertaint"}},
	{"mean of an empty slice", []edit{{"internal/stats/desc.go",
		"func Mean(xs []float64) float64 {\n\tif len(xs) == 0 {\n\t\treturn 0\n\t}\n",
		"func Mean(xs []float64) float64 {\n"}},
		[]string{"divzero"}},
	{"final plan write error dropped", []edit{{"internal/tenant/run.go",
		"if err := enc.Encode(plan); err != nil {\n\t\t\t\tcfg.Log.Printf(\"harmonyd: final plan: %v\", err)\n\t\t\t}",
		"enc.Encode(plan)"}},
		[]string{"errflow"}},
	{"serve error dropped by the go statement", []edit{{"internal/tenant/run.go",
		"go func() { serveErr <- httpSrv.Serve(ln) }()",
		"go httpSrv.Serve(ln)"}},
		[]string{"errflow"}},
	{"warm basis checked with exact equality", []edit{{"internal/lp/sparse.go",
		"!(math.Abs(v-b) <= 1e-7*(1+math.Abs(b)))",
		"v != b"}},
		[]string{"floateq"}},
	// The solvers' tie-breaks and the certificate compare within a
	// tolerance; an exact comparison passes every test (ties and gaps at
	// exactly equal values are rare) and only floateq notices.
	{"duality gap made exact", []edit{{"internal/lp/sparse.go",
		"math.Abs(primal-dual) <= 1e-6*(1+math.Abs(primal))",
		"primal == dual"}},
		[]string{"floateq"}},
	{"leaving tie-break made exact", []edit{{"internal/lp/sparse.go",
		"math.Abs(ratio-best) <= tie",
		"ratio == best"}},
		[]string{"floateq"}},
	{"dual ratio tie-break made exact", []edit{{"internal/lp/sparse.go",
		"math.Abs(ratio-bestRatio) <= eps",
		"ratio == bestRatio"}},
		[]string{"floateq"}},
	{"empty evaluation window not rejected", []edit{{"internal/forecast/forecast.go",
		"\tif len(actual) == 0 {\n\t\treturn Metrics{}, ErrTooShort\n\t}\n",
		""}},
		[]string{"divzero"}},
	{"AIC of an exact fit takes log(0)", []edit{{"internal/forecast/auto.go",
		"if n <= 0 || sse <= 0 {",
		"if n <= 0 {"}},
		[]string{"nansource"}},
	{"task sizes logged unvalidated", []edit{{"internal/classify/classify.go",
		"\tif !(cpu > 0 && mem > 0) || math.IsInf(cpu, 1) || math.IsInf(mem, 1) {\n\t\treturn p, false\n\t}\n",
		""}},
		[]string{"nansource"}},
	{"characterization save error dropped", []edit{{"internal/classify/persist.go",
		"\tif err := enc.Encode(dto); err != nil {\n\t\treturn fmt.Errorf(\"classify: save: %w\", err)\n\t}\n",
		"\tenc.Encode(dto)\n"}},
		[]string{"errflow"}},
	{"switch costs of an idle-free fleet", []edit{{"internal/energy/energy.go",
		"\tif maxIdle > 0 {\n\t\tfor i, m := range models {\n\t\t\tcosts[i] = largestDollars * m.IdleWatts / maxIdle\n\t\t}\n\t}\n",
		"\tfor i, m := range models {\n\t\tcosts[i] = largestDollars * m.IdleWatts / maxIdle\n\t}\n"}},
		[]string{"divzero"}},
	{"M/G/c probe error discarded", []edit{{"internal/queueing/queueing.go",
		"\tw, err := eval(lo)\n\tif err != nil {\n\t\treturn 0, err\n\t}\n",
		"\tw, _ := eval(lo)\n"}},
		[]string{"errflow"}},
	{"group and tenant locks taken in both orders", []edit{
		{"internal/tenant/multi.go",
			"g.mu.Lock()\n\tcost := 0.0",
			"g.mu.Lock()\n\tdefer g.mu.Unlock()\n\tcost := 0.0"},
		{"internal/tenant/multi.go",
			"g.cost.Set(g.cost.Value() + cost)\n\tg.mu.Unlock()\n",
			"g.cost.Set(g.cost.Value() + cost)\n"},
		{"internal/tenant/multi.go",
			"ts.mu.Lock()\n\t\tcounts := append([]uint64(nil), ts.byClass...)\n\t\tts.mu.Unlock()",
			"ts.mu.Lock()\n\t\tts.group.mu.Lock()\n\t\tcounts := append([]uint64(nil), ts.byClass...)\n\t\tts.group.mu.Unlock()\n\t\tts.mu.Unlock()"}},
		[]string{"deferclose"}},
	{"tick result handed over under the engine lock", []edit{{"internal/daemon/engine.go",
		"\t\te.solving.Store(false)\n\t\tdone <- result{plan, err}\n",
		"\t\te.mu.Lock()\n\t\te.solving.Store(false)\n\t\tdone <- result{plan, err}\n\t\te.mu.Unlock()\n"}},
		[]string{"deferclose"}},
	{"log-normal mean not validated", []edit{{"internal/trace/generator.go",
		"mean := g.ShortMean\n\t\tif mean <= 0 {\n\t\t\tmean = 1\n\t\t}\n",
		"mean := g.ShortMean\n"}},
		[]string{"nansource"}},
	{"metrics rendered in map order", []edit{{"internal/metrics/metrics.go",
		"for _, m := range fams {",
		"for _, m := range r.families {"}},
		[]string{"sortedemit"}},
	// harmony-sim has no render golden; only by chance does a test
	// compare two runs whose map orders differ.
	{"per-group delays printed in map order", []edit{{"cmd/harmony-sim/main.go",
		"for _, g := range harmony.Groups() {\n\t\tfmt.Fprintf(out, \"  %-10s mean delay %8.1f s\\n\", g, res.MeanDelaySeconds[g])",
		"for g, d := range res.MeanDelaySeconds {\n\t\tfmt.Fprintf(out, \"  %-10s mean delay %8.1f s\\n\", g, d)"}},
		[]string{"sortedemit"}},
	{"exact scan rewritten, allow left behind", []edit{{"internal/stats/cdf.go",
		"sorted[idx] == x {",
		"sorted[idx] <= x {"}},
		[]string{"unusedallow"}},
}

// TestMutationTable applies each mutant to a copy of the module in a
// temporary directory and lints the whole module, as `harmony-lint ./...`
// would. Only the mutated packages and their importers are re-checked;
// the rest are the tree's own, already loaded.
func TestMutationTable(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole module once per mutant")
	}
	l := sharedLoader(t)
	pkgs := loadTree(t)
	byPath := make(map[string]*Package, len(pkgs))
	importers := make(map[string][]string)
	for _, p := range pkgs {
		byPath[p.Path] = p
		for _, imp := range p.Types.Imports() {
			importers[imp.Path()] = append(importers[imp.Path()], p.Path)
		}
	}
	order := dependencyOrder(pkgs, byPath)

	// The copy: go.mod plus every file the loader type-checked.
	dir := t.TempDir()
	copyFile(t, filepath.Join(l.root, "go.mod"), filepath.Join(dir, "go.mod"))
	pkgOf := make(map[string]string)    // module-relative file -> package path
	copies := make(map[string][]string) // package path -> its files in the copy
	for _, p := range pkgs {
		for _, f := range p.Files {
			rel := relTo(t, l.root, l.fset.Position(f.Package).Filename)
			copyFile(t, filepath.Join(l.root, rel), filepath.Join(dir, rel))
			pkgOf[rel] = p.Path
			copies[p.Path] = append(copies[p.Path], filepath.Join(dir, rel))
		}
	}

	flagged := make(map[string]bool)
	for _, m := range mutationTable {
		t.Run(m.name, func(t *testing.T) {
			dirty := make(map[string]bool)
			var mark func(path string)
			mark = func(path string) {
				if dirty[path] {
					return
				}
				dirty[path] = true
				for _, imp := range importers[path] {
					mark(imp)
				}
			}
			for _, e := range m.edits {
				path := filepath.Join(dir, e.file)
				orig, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(string(orig), e.old); n != 1 {
					t.Fatalf("%s: the edit's old text occurs %d times; update the row to the tree", e.file, n)
				}
				writeFile(t, path, strings.Replace(string(orig), e.old, e.new, 1))
				defer writeFile(t, path, string(orig))
				mark(pkgOf[e.file])
			}

			// Mutated packages shadow the tree's; everything else, the
			// standard library included, resolves through the tree's loader.
			mut := &Loader{root: dir, fset: l.fset, exports: l.exports, src: make(map[string]*types.Package)}
			mut.imp = importerFunc(func(path string) (*types.Package, error) {
				if p := mut.src[path]; p != nil {
					return p, nil
				}
				return l.imp.Import(path)
			})
			var run []*Package
			for _, p := range order {
				if !dirty[p.Path] {
					run = append(run, p)
					continue
				}
				q, err := mut.check(p.Path, filepath.Join(dir, relTo(t, l.root, p.Dir)), copies[p.Path])
				if err != nil {
					t.Fatalf("mutant does not type-check: %v", err)
				}
				run = append(run, q)
			}

			diags := Check(run, All())
			got := make(map[string]bool)
			for _, d := range diags {
				got[d.Analyzer] = true
				flagged[d.Analyzer] = true
			}
			if names := sortedKeys(got); strings.Join(names, ",") != strings.Join(m.want, ",") {
				var sb strings.Builder
				for _, d := range diags {
					sb.WriteString("\n\t" + d.String())
				}
				t.Errorf("flagged by %v, want exactly %v:%s", names, m.want, sb.String())
			}
		})
	}
	for _, az := range All() {
		if !flagged[az.Name] {
			t.Errorf("no mutant is flagged by %s: add a row that exercises it", az.Name)
		}
	}
}

// loadTree loads and type-checks the whole module once per test binary.
func loadTree(t *testing.T) []*Package {
	t.Helper()
	l := sharedLoader(t)
	treeOnce.Do(func() { treePkgs, treeErr = l.Load("./...") })
	if treeErr != nil {
		t.Fatalf("load ./...: %v", treeErr)
	}
	return treePkgs
}

// dependencyOrder sorts the module's packages so each follows everything
// it imports, as the loader must check them.
func dependencyOrder(pkgs []*Package, byPath map[string]*Package) []*Package {
	var order []*Package
	seen := make(map[string]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.Path] {
			return
		}
		seen[p.Path] = true
		for _, imp := range p.Types.Imports() {
			if q := byPath[imp.Path()]; q != nil {
				visit(q)
			}
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

func relTo(t *testing.T, root, path string) string {
	t.Helper()
	rel, err := filepath.Rel(root, path)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, to, string(data))
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
