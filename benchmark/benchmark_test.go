package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // fewer than 10 samples beyond even p90
		{100, 0.90, true},
		{150, 0.90, true},  // ticks of online_replay at 15 s
		{252, 0.95, true},  // 12 beyond p95
		{900, 0.95, true},  // reads: 45 beyond p95, 9 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{2500, 0.99, true}, // POSTs: 25 beyond p99, 2 beyond p99.9
		{10000, 0.999, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuantileAndSummary(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := summarize(xs)
	if s.N != 5 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 5 {
		t.Error("summarize reordered its input")
	}
	if q := quantile([]float64{10, 20}, 0.5); q != 15 {
		t.Errorf("interpolated median = %v, want 15", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile of nothing = %v", q)
	}
}

// fakeClock is a clock the test moves: SleepUntil can overshoot (a
// starved generator) and requests take scripted service times.
type fakeClock struct {
	now       time.Duration
	overshoot map[time.Duration]time.Duration // by due time
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) SleepUntil(offset time.Duration) {
	if offset > c.now {
		c.now = offset + c.overshoot[offset]
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	const msec = time.Millisecond
	clk := &fakeClock{overshoot: map[time.Duration]time.Duration{30 * msec: 7 * msec}}
	ops := []op{
		{Kind: opIngest, Due: 0, Limit: 20 * msec},         // served in 2 ms
		{Kind: opTick, Due: 10 * msec, Limit: 100 * msec},  // stalls 15 ms: done at 25
		{Kind: opIngest, Due: 20 * msec, Limit: 20 * msec}, // sent 5 ms late behind the tick
		{Kind: opIngest, Due: 30 * msec, Limit: 20 * msec}, // generator wakes 7 ms late
		{Kind: opIngest, Due: 40 * msec, Limit: 20 * msec}, // served in 25 ms: past its limit
		{Kind: opIngest, Due: -1},                          // closed loop: timed from its send
	}
	service := []time.Duration{2 * msec, 15 * msec, 1 * msec, 1 * msec, 25 * msec, 3 * msec}
	i := 0
	rs := runLoop(clk, ops, func(*op) (int, []byte) {
		clk.now += service[i]
		i++
		return 202, nil
	}, loopOptions{})

	want := []struct {
		latency, lateness time.Duration
		starved, late     bool
	}{
		{2 * msec, 0, false, false},
		{15 * msec, 0, false, false},
		{6 * msec, 5 * msec, false, false}, // the tick's stall counts against the next request
		{8 * msec, 7 * msec, true, false},  // late with the server idle: the generator's fault
		{25 * msec, 0, false, true},
		{3 * msec, 0, false, false},
	}
	for j, w := range want {
		r := rs[j]
		if r.Latency != w.latency || r.Lateness != w.lateness || r.Starved != w.starved || r.late() != w.late || r.failed() {
			t.Errorf("op %d: latency %v lateness %v starved %v late %v failed %v; want %+v and not failed",
				j, r.Latency, r.Lateness, r.Starved, r.late(), r.failed(), w)
		}
	}
	bad := opResult{Op: &ops[0], Status: 429}
	if !bad.failed() || bad.late() {
		t.Error("a 429 must count as failed, and only as failed")
	}
}

func TestRunLoopStopsAndHooks(t *testing.T) {
	clk := &fakeClock{}
	stop := make(chan struct{})
	ops := make([]op, 5)
	for i := range ops {
		ops[i] = op{Kind: opRead, Due: time.Duration(i) * time.Second}
	}
	var hooks []bool
	rs := runLoop(clk, ops, func(*op) (int, []byte) {
		clk.now += time.Millisecond
		if clk.now > 2*time.Second {
			close(stop)
		}
		return 200, nil
	}, loopOptions{stop: stop, around: func(_ *op, before bool) {
		clk.now += time.Hour // hooks must stay outside the timed interval
		hooks = append(hooks, before)
	}})
	if len(rs) == len(ops) || len(rs) == 0 {
		t.Fatalf("loop ran %d of %d ops; the stop channel should have ended it early", len(rs), len(ops))
	}
	for _, r := range rs {
		if r.Service != time.Millisecond {
			t.Errorf("service time %v includes a hook", r.Service)
		}
	}
	if len(hooks) != 2*len(rs) || !hooks[0] || hooks[1] {
		t.Errorf("hooks = %v for %d ops", hooks, len(rs))
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 120, 100, 90, 110}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"within bound", steady, []float64{103, 104, 102, 103, 103}, false, 0.10, unchanged},
		{"lower-is-better regression", steady, []float64{115, 116, 114, 115, 115}, false, 0.10, regressed},
		{"higher-is-better regression", steady, []float64{85, 86, 84, 85, 85}, true, 0.10, regressed},
		{"improvement", steady, []float64{80, 81, 79, 80, 80}, false, 0.10, improved},
		{"spread wider than the bound", noisy, []float64{97, 103, 95, 105, 100}, false, 0.10, unresolved},
		{"noisy but every run better", noisy, []float64{60, 62, 61, 59, 60}, false, 0.10, improved},
		{"noisy and beyond the bound is still a regression", noisy, []float64{130, 131, 129, 130, 130}, false, 0.10, regressed},
	} {
		if got, _, _, _ := judge(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry pins ../BENCHMARK.json to the metric
// and workload tables of this package.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s", i, doc.Workloads[i], w.Name)
		}
	}
	match := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, g, d)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEnd)
	match("per_layer", doc.PerLayer, perLayer)
	if !hasMetric(endToEnd, "setup_s") {
		t.Error("the contract needs a setup_s end-to-end metric")
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestSmoke runs all four workloads at toy size, subprocess harmonyd
// included, and fails on any correctness check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts harmonyd")
	}
	if err := run([]string{"-smoke", "-out", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}
