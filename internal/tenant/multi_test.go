package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/daemon"
	"harmony/internal/energy"
	"harmony/internal/metrics"
	"harmony/internal/trace"
)

// testCharDoc mirrors the daemon test characterization: a gratis class
// with a short/long split and a production class with one short sub-class.
const testCharDoc = `{
  "version": 1,
  "classes": [
    {
      "id": 0, "group": 1,
      "cpu": 0.02, "mem": 0.02, "cpuStd": 0.005, "memStd": 0.005,
      "count": 1000,
      "cpuQuantiles": [0.025, 0.03, 0.035, 0.05],
      "memQuantiles": [0.025, 0.03, 0.035, 0.05],
      "sub": [
        {"MeanDuration": 60, "SqCV": 1.2, "MaxDuration": 100, "Count": 900},
        {"MeanDuration": 5000, "SqCV": 0.5, "MaxDuration": 20000, "Count": 100}
      ],
      "logCentroid": [-3.912, -3.912]
    },
    {
      "id": 1, "group": 3,
      "cpu": 0.1, "mem": 0.1, "cpuStd": 0.02, "memStd": 0.02,
      "count": 50,
      "cpuQuantiles": [0.12, 0.13, 0.14, 0.16],
      "memQuantiles": [0.12, 0.13, 0.14, 0.16],
      "sub": [
        {"MeanDuration": 300, "SqCV": 1.0, "MaxDuration": 2000, "Count": 50}
      ],
      "logCentroid": [-2.303, -2.303]
    }
  ]
}`

func testChar(t testing.TB) *classify.Characterization {
	t.Helper()
	ch, err := classify.Load(strings.NewReader(testCharDoc))
	if err != nil {
		t.Fatalf("load test characterization: %v", err)
	}
	return ch
}

// testBase returns the daemon config the groups run: the Table II cluster
// scaled down 100x with the two-class characterization.
func testBase(t testing.TB) daemon.Config {
	t.Helper()
	models, machines := energy.TableIIScaled(100)
	return daemon.Config{Machines: machines, Models: models, Char: testChar(t)}
}

// gratisTask builds a task that labels into class 0 (short sub first).
func gratisTask(id uint64, submit, duration float64, tenant string) trace.Task {
	return trace.Task{ID: id, Submit: submit, Duration: duration,
		CPU: 0.02, Mem: 0.02, Priority: 0, Tenant: tenant}
}

// prodTask builds a task that labels into class 1.
func prodTask(id uint64, submit, duration float64, tenant string) trace.Task {
	return trace.Task{ID: id, Submit: submit, Duration: duration,
		CPU: 0.1, Mem: 0.1, Priority: 10, Tenant: tenant}
}

func TestLoadValidation(t *testing.T) {
	good := `{"tenants":[{"name":"a","sloDelay":60},{"name":"b"}],"sloTolerance":3}`
	doc, err := Load(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 2 || doc.SLOTolerance != 3 {
		t.Errorf("doc = %+v", doc)
	}

	bad := []string{
		`{"tenants":[]}`,
		`{"tenants":[{"name":""}]}`,
		`{"tenants":[{"name":"a"},{"name":"a"}]}`,
		`{"tenants":[{"name":"a","sloDelay":-1}]}`,
		`{"tenants":[{"name":"a","share":-2}]}`,
		`{"tenants":[{"name":"a","queueSize":-1}]}`,
		`{"tenants":[{"name":"a"}],"sloTolerance":0.5}`,
		`{"tenants":[{"name":"a"}],"unknown":1}`,
		`{"tenants":[{"name":"a","bogus":true}]}`,
		`not json`,
	}
	for _, body := range bad {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

// FuzzLoad feeds arbitrary bytes to the tenants config loader; its seed
// corpus is testdata/fuzz/FuzzLoad. Load may not panic, and a document it
// accepts must pass ValidateSpecs, carry a tolerance New accepts (0 or
// finite and at least 1), come back equal from a json.Marshal and a
// second Load, and have GroupSpecs place each tenant in exactly one group.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		doc, err := Load(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := ValidateSpecs(doc.Tenants); err != nil {
			t.Fatalf("accepted specs ValidateSpecs rejects: %v", err)
		}
		if tol := doc.SLOTolerance; tol != 0 && !(tol >= 1 && !math.IsInf(tol, 1)) {
			t.Fatalf("accepted sloTolerance %v", tol)
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		again, err := Load(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("marshalled document does not re-load: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(doc, again) {
			t.Fatalf("round trip changed the document:\n%+v\n%+v", doc, again)
		}
		placed := make(map[string]int, len(doc.Tenants))
		for _, g := range GroupSpecs(doc.Tenants, doc.SLOTolerance) {
			for _, s := range g {
				placed[s.Name]++
			}
		}
		for _, s := range doc.Tenants {
			if placed[s.Name] != 1 {
				t.Fatalf("tenant %q is in %d groups", s.Name, placed[s.Name])
			}
		}
		if len(placed) != len(doc.Tenants) {
			t.Fatalf("groups hold %d tenants, the document %d", len(placed), len(doc.Tenants))
		}
	})
}

func TestGroupSpecs(t *testing.T) {
	specs := []Spec{
		{Name: "slow", SLODelay: 500},
		{Name: "deflt2"},
		{Name: "fast", SLODelay: 60},
		{Name: "mid", SLODelay: 100},
		{Name: "edge", SLODelay: 130},
		{Name: "deflt1"},
	}
	groups := GroupSpecs(specs, 2)
	want := [][]string{
		{"fast", "mid"}, // 100 <= 60*2
		{"edge"},        // 130 > 120 opens a new group
		{"slow"},
		{"deflt1", "deflt2"}, // default-SLO tenants always last, alone
	}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d: %+v", len(groups), len(want), groups)
	}
	for i, g := range groups {
		var names []string
		for _, s := range g {
			names = append(names, s.Name)
		}
		if !reflect.DeepEqual(names, want[i]) {
			t.Errorf("group %d = %v, want %v", i, names, want[i])
		}
	}

	// A wider tolerance merges the edge tenant into the first group.
	groups = GroupSpecs(specs, 3)
	if len(groups) != 3 || len(groups[0]) != 3 {
		t.Errorf("tolerance 3 groups = %+v", groups)
	}
}

func TestNewValidation(t *testing.T) {
	base := testBase(t)
	if _, err := New(Config{Base: base}); err == nil {
		t.Error("no tenants accepted")
	}
	if _, err := New(Config{Base: base, Tenants: []Spec{{Name: "a"}}, SLOTolerance: 0.5}); err == nil {
		t.Error("tolerance < 1 accepted")
	}
	if _, err := New(Config{Base: daemon.Config{}, Tenants: []Spec{{Name: "a"}}}); err == nil {
		t.Error("empty base config accepted")
	}
}

// defaultPeriodSeconds is the engine's default control period; the test
// streams below are laid out on it.
const defaultPeriodSeconds = 300

// TestCostDefaultsMatchEngine pins the cost model to the engine it
// prices: each group bills the engine's resolved period and the
// switching cost the engine itself runs at (energy's), rather than values
// of its own. (The price is energy.DefaultPricePerKWh at the point of
// use, as in the engine.)
func TestCostDefaultsMatchEngine(t *testing.T) {
	base := testBase(t)
	eng, err := daemon.NewEngine(base)
	if err != nil {
		t.Fatal(err)
	}
	if eng.PeriodSeconds() != defaultPeriodSeconds {
		t.Errorf("engine default period %v, tests assume %v",
			eng.PeriodSeconds(), float64(defaultPeriodSeconds))
	}
	m, err := New(Config{Base: base, Tenants: []Spec{{Name: "app"}}})
	if err != nil {
		t.Fatal(err)
	}
	g := m.groups[0]
	if g.periodH*3600 != eng.PeriodSeconds() {
		t.Errorf("cost model bills period %vs, engine runs %vs", g.periodH*3600, eng.PeriodSeconds())
	}
	maxSwitch := 0.0
	for _, c := range g.switchCost {
		maxSwitch = math.Max(maxSwitch, c)
	}
	if math.Abs(maxSwitch-energy.DefaultSwitchCostDollars) > 1e-12 {
		t.Errorf("largest per-type switch cost %v, engine switching cost %v",
			maxSwitch, energy.DefaultSwitchCostDollars)
	}
}

// TestGroupCostInDollars pins one tick's provisioning cost in absolute
// terms (the other cost tests compare runs, so a unit slip common to both
// sides cancels): Table II idles at 60/120/140/260 W, a period is 300 s,
// a kWh is $0.08 and a switch is $0.01 scaled by idle power.
func TestGroupCostInDollars(t *testing.T) {
	m, err := New(Config{Base: testBase(t), Tenants: []Spec{{Name: "app"}}})
	if err != nil {
		t.Fatal(err)
	}
	plan := &daemon.Plan{Machines: []daemon.MachinePlan{{Active: 10}, {}, {}, {Active: 2}}}
	m.accountTick(m.groups[0], plan)
	const (
		idleKW    = (10*60 + 2*260) / 1000.0
		idle      = idleKW * (300.0 / 3600) * 0.08
		switching = 10*0.01*60/260 + 2*0.01 // all twelve machines power on
	)
	if got := m.Snapshot().Groups[0].CostDollars; math.Abs(got-(idle+switching)) > 1e-12 {
		t.Errorf("group cost after one tick = $%v, want $%v", got, idle+switching)
	}
}

// stream builds a deterministic two-class arrival stream covering the
// given number of default control periods.
func stream(periods int, tenant string) []trace.Task {
	var tasks []trace.Task
	id := uint64(1)
	for k := 0; k < periods; k++ {
		base := float64(k) * defaultPeriodSeconds
		for j := 0; j < 6+2*(k%3); j++ {
			tasks = append(tasks, gratisTask(id, base+float64(j*7), 60, tenant))
			id++
		}
		for j := 0; j < 2+k%2; j++ {
			tasks = append(tasks, prodTask(id, base+float64(j*31), 400, tenant))
			id++
		}
	}
	return tasks
}

// filterNondet drops the wall-clock-dependent metric lines (the tick
// latency histogram and its derived sum/count) so two registries driven
// over the same model-time stream compare byte-for-byte.
func filterNondet(render string) string {
	var keep []string
	for _, line := range strings.Split(render, "\n") {
		if strings.Contains(line, "harmonyd_tick_duration_seconds") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestN1BitIdentical is the equivalence contract: one tenant with the
// default SLO reproduces the single-tenant daemon byte-for-byte — the
// final plan, the stats snapshot, and the engine metrics (modulo the
// wall-clock tick-latency histogram).
func TestN1BitIdentical(t *testing.T) {
	const periods = 3
	tasks := stream(periods, "") // untagged: routes to the single tenant

	// Reference: a bare engine driven exactly as daemon.Replay drives it,
	// with a visible registry.
	baseCfg := testBase(t)
	reg := metrics.NewRegistry()
	engCfg := baseCfg
	engCfg.Registry = reg
	eng, err := daemon.NewEngine(engCfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for k := 1; k <= periods; k++ {
		boundary := float64(k) * defaultPeriodSeconds
		for i < len(tasks) && tasks[i].Submit < boundary {
			if err := eng.Ingest(tasks[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if _, err := eng.Tick(context.Background()); err != nil {
			t.Fatalf("reference tick %d: %v", k, err)
		}
	}
	wantPlan, err := eng.Plan()
	if err != nil {
		t.Fatal(err)
	}

	// Multi-tenant N=1 over the same stream, boundary-driven via Replay.
	plans, err := Replay(Config{Base: testBase(t), Tenants: []Spec{{Name: "app"}}}, tasks, periods)
	if err != nil {
		t.Fatal(err)
	}
	gotPlan, ok := plans["g0"]
	if !ok {
		t.Fatalf("replay plans = %v", plans)
	}
	wantJSON, _ := json.Marshal(wantPlan)
	gotJSON, _ := json.Marshal(gotPlan)
	if string(wantJSON) != string(gotJSON) {
		t.Errorf("N=1 plan differs:\n  daemon: %s\n  tenant: %s", wantJSON, gotJSON)
	}

	// Drive a second Multi boundary-by-boundary to compare stats and
	// metrics (Replay's Multi is not returned).
	m2, err := New(Config{Base: testBase(t), Tenants: []Spec{{Name: "app"}}})
	if err != nil {
		t.Fatal(err)
	}
	i = 0
	for k := 1; k <= periods; k++ {
		boundary := float64(k) * defaultPeriodSeconds
		for i < len(tasks) && tasks[i].Submit < boundary {
			if err := m2.Ingest(tasks[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if _, err := m2.Tick(context.Background()); err != nil {
			t.Fatalf("multi tick %d: %v", k, err)
		}
	}
	g := m2.Groups()[0]
	if g.SLO() != 0 {
		t.Errorf("N=1 default group SLO = %v, want 0 (engine defaults)", g.SLO())
	}

	wantStats := eng.Snapshot()
	gotStats := g.Engine().Snapshot()
	wantStats.LastTickSeconds, gotStats.LastTickSeconds = 0, 0
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Errorf("N=1 stats differ:\n  daemon: %+v\n  tenant: %+v", wantStats, gotStats)
	}

	wantMetrics := filterNondet(reg.Render())
	gotMetrics := filterNondet(g.Registry().Render())
	if wantMetrics != gotMetrics {
		t.Errorf("N=1 engine metrics differ:\n--- daemon ---\n%s\n--- tenant ---\n%s",
			wantMetrics, gotMetrics)
	}
}

// TestGroupingAndAccounting runs three tenants across two groups and
// checks routing, per-tenant counts, classification state, and per-group
// cost and violation accounting.
func TestGroupingAndAccounting(t *testing.T) {
	m, err := New(Config{Base: testBase(t), Tenants: []Spec{
		{Name: "web", SLODelay: 60},
		{Name: "api", SLODelay: 100},
		{Name: "batch"}, // default SLO: own group
	}})
	if err != nil {
		t.Fatal(err)
	}
	groups := m.Groups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].SLO() != 60 || groups[1].SLO() != 0 {
		t.Errorf("group SLOs = %v, %v", groups[0].SLO(), groups[1].SLO())
	}

	counts := map[string]int{"web": 10, "api": 5, "batch": 7}
	id := uint64(1)
	for name, n := range counts {
		for j := 0; j < n; j++ {
			task := gratisTask(id, float64(j), 60, name)
			if name == "api" {
				task = prodTask(id, float64(j), 400, name)
			}
			if err := m.Ingest(task); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if err := m.Ingest(gratisTask(id, 0, 60, "nobody")); err == nil {
		t.Error("unknown tenant accepted")
	}
	if err := m.Ingest(gratisTask(id, 0, 60, "")); err == nil {
		t.Error("untagged task accepted with 3 tenants configured")
	}

	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	plans, err := m.Plans()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 || plans["g0"] == nil || plans["g1"] == nil {
		t.Fatalf("plans = %v", plans)
	}

	snap := m.Snapshot()
	if len(snap.Tenants) != 3 || len(snap.Groups) != 2 {
		t.Fatalf("snapshot shape: %d tenants, %d groups", len(snap.Tenants), len(snap.Groups))
	}
	byName := map[string]TenantStats{}
	for _, ts := range snap.Tenants {
		byName[ts.Name] = ts
	}
	for name, n := range counts {
		if got := byName[name].TasksIngested; got != uint64(n) {
			t.Errorf("%s ingested = %d, want %d", name, got, n)
		}
	}
	if byName["web"].Group != "g0" || byName["api"].Group != "g0" || byName["batch"].Group != "g1" {
		t.Errorf("tenant groups: %+v", byName)
	}
	if byName["api"].TasksByClass["class1"] != 5 {
		t.Errorf("api classes = %v", byName["api"].TasksByClass)
	}
	if byName["web"].TasksByClass["class0"] != 10 {
		t.Errorf("web classes = %v", byName["web"].TasksByClass)
	}

	for _, gs := range snap.Groups {
		if gs.CostDollars <= 0 {
			t.Errorf("group %s cost = %v, want > 0 (idle energy of active machines)", gs.Name, gs.CostDollars)
		}
		if gs.SLOViolationRate < 0 || gs.SLOViolationRate > 1 {
			t.Errorf("group %s violation rate = %v", gs.Name, gs.SLOViolationRate)
		}
		if gs.Engine.Ticks != 1 {
			t.Errorf("group %s engine ticks = %d", gs.Name, gs.Engine.Ticks)
		}
	}
	// Tenant cost attribution partitions each group's cost.
	groupCost := map[string]float64{}
	for _, gs := range snap.Groups {
		groupCost[gs.Name] = gs.CostDollars
	}
	sums := map[string]float64{}
	for _, ts := range snap.Tenants {
		if ts.CostDollars <= 0 {
			t.Errorf("tenant %s cost = %v, want > 0", ts.Name, ts.CostDollars)
		}
		sums[ts.Group] += ts.CostDollars
	}
	for name, want := range groupCost {
		if math.Abs(sums[name]-want) > 1e-9 {
			t.Errorf("group %s tenant costs sum to %v, group cost %v", name, sums[name], want)
		}
	}
}

// TestCostAttributionByShare checks the share weighting: two tenants in
// one group with equal arrival windows split the tick cost by Share.
func TestCostAttributionByShare(t *testing.T) {
	m, err := New(Config{Base: testBase(t), Tenants: []Spec{
		{Name: "gold", SLODelay: 60, Share: 3},
		{Name: "bronze", SLODelay: 60, Share: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Groups()) != 1 {
		t.Fatalf("equal SLOs must share a group")
	}
	id := uint64(1)
	for j := 0; j < 8; j++ {
		for _, name := range []string{"gold", "bronze"} {
			if err := m.Ingest(gratisTask(id, float64(j), 60, name)); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	var gold, bronze float64
	for _, ts := range snap.Tenants {
		switch ts.Name {
		case "gold":
			gold = ts.CostDollars
		case "bronze":
			bronze = ts.CostDollars
		}
	}
	if bronze <= 0 || math.Abs(gold-3*bronze) > 1e-9 {
		t.Errorf("share split: gold=%v bronze=%v, want 3:1", gold, bronze)
	}
}

// TestConcurrentTickIngestSnapshot exercises the multi layer under the
// race detector: concurrent tagged ingest, overlapping tick requests, and
// snapshot/plan readers. The ingesters keep going until every tick has
// returned, so each tick's accounting (the members' arrival windows
// closed in accountTick) overlaps live ingests of the same tenants.
func TestConcurrentTickIngestSnapshot(t *testing.T) {
	m, err := New(Config{Base: testBase(t), Tenants: []Spec{
		{Name: "web", SLODelay: 60},
		{Name: "api", SLODelay: 100},
		{Name: "batch"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"web", "api", "batch"}
	done := make(chan struct{})
	var sent [4]uint64 // per ingester, read after the join
	var wg sync.WaitGroup
	for w := range sent {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-done:
					return
				default:
				}
				task := gratisTask(uint64(w*1_000_000+j), float64(j%300), 60, names[(w+j)%len(names)])
				if err := m.Ingest(task); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				sent[w]++
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = m.Snapshot()
				_, _ = m.Plans()
			}
		}()
	}
	var tickers sync.WaitGroup
	for w := 0; w < 2; w++ {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			// Overlapping ticks may hit ErrTickInFlight per group; that is
			// the contract, not an error.
			for k := 0; k < 25; k++ {
				_, _ = m.Tick(context.Background())
			}
		}()
	}
	tickers.Wait()
	close(done)
	wg.Wait()

	if _, err := m.Tick(context.Background()); err != nil {
		t.Fatalf("final tick: %v", err)
	}
	var want, total uint64
	for _, n := range sent {
		want += n
	}
	for _, ts := range m.Snapshot().Tenants {
		total += ts.TasksIngested
	}
	if total != want {
		t.Errorf("ingested %d tasks, want %d", total, want)
	}
}

// TestReplayRejectsBadInput covers the replay entry points.
func TestReplayRejectsBadInput(t *testing.T) {
	cfg := Config{Base: testBase(t), Tenants: []Spec{{Name: "app"}}}
	if _, err := Replay(cfg, nil, 0); err == nil {
		t.Error("zero ticks accepted")
	}
	if _, err := Replay(Config{Base: testBase(t)}, nil, 1); err == nil {
		t.Error("no tenants accepted")
	}
	bad := []trace.Task{gratisTask(1, 0, 60, "ghost")}
	if _, err := Replay(cfg, bad, 1); err == nil {
		t.Error("unknown tenant tag accepted")
	}
}
