package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tasks_total", "tasks ingested")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("queue_depth", "current depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
	// Re-registering returns the same instance.
	if r.Counter("tasks_total", "tasks ingested") != c {
		t.Error("re-registered counter is a different instance")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tick_seconds", "tick latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	out := r.Render()
	for _, want := range []string{
		`tick_seconds_bucket{le="0.1"} 1`,
		`tick_seconds_bucket{le="1"} 3`,
		`tick_seconds_bucket{le="10"} 4`,
		`tick_seconds_bucket{le="+Inf"} 5`,
		`tick_seconds_sum 56.05`,
		`tick_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestVecsAndRenderDeterminism(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("arrivals_total", "arrivals per group", "group")
	cv.With("production").Add(10)
	cv.With("gratis").Add(2)
	gv := r.GaugeVec("active_machines", "powered machines per type", "type")
	gv.With("1").Set(5)
	r.Counter("zzz_last", "sorted last").Inc()

	out := r.Render()
	for _, want := range []string{
		"# HELP arrivals_total arrivals per group\n# TYPE arrivals_total counter\n",
		`arrivals_total{group="gratis"} 2`,
		`arrivals_total{group="production"} 10`,
		`active_machines{type="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Label values render sorted; metric names render sorted.
	if strings.Index(out, `group="gratis"`) > strings.Index(out, `group="production"`) {
		t.Error("label values not sorted")
	}
	if strings.Index(out, "arrivals_total") > strings.Index(out, "zzz_last") {
		t.Error("metric families not sorted by name")
	}
	if out != r.Render() {
		t.Error("render is not deterministic")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("h", "", nil)
	cv := r.CounterVec("v", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j))
				cv.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
	if cv.With("a").Value() != 8000 {
		t.Errorf("vec counter = %v, want 8000", cv.With("a").Value())
	}
}

// TestRenderDeterministic populates two registries with the same families
// and label values in different orders and asserts the rendered text is
// byte-identical — and matches the golden exposition verbatim, so any
// ordering regression (map-iteration leakage) shows as a diff.
func TestRenderDeterministic(t *testing.T) {
	const golden = `# HELP depth current depth
# TYPE depth gauge
depth 3
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
# HELP reqs_total requests by route
# TYPE reqs_total counter
reqs_total{route="/metrics"} 1
reqs_total{route="/v1/stats"} 2
reqs_total{route="/v1/tasks"} 4
# HELP tasks_total tasks ingested
# TYPE tasks_total counter
tasks_total 2
`

	forward := NewRegistry()
	forward.Gauge("depth", "current depth").Set(3)
	h := forward.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	rv := forward.CounterVec("reqs_total", "requests by route", "route")
	rv.With("/metrics").Inc()
	rv.With("/v1/stats").Add(2)
	rv.With("/v1/tasks").Add(4)
	forward.Counter("tasks_total", "tasks ingested").Add(2)

	// Same state, reversed registration and label-touch order.
	reverse := NewRegistry()
	reverse.Counter("tasks_total", "tasks ingested").Add(2)
	rv = reverse.CounterVec("reqs_total", "requests by route", "route")
	rv.With("/v1/tasks").Add(4)
	rv.With("/v1/stats").Add(2)
	rv.With("/metrics").Inc()
	h = reverse.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(5)
	h.Observe(0.5)
	h.Observe(0.05)
	reverse.Gauge("depth", "current depth").Set(3)

	a, b := forward.Render(), reverse.Render()
	if a != b {
		t.Errorf("render differs by population order:\n--- forward ---\n%s--- reverse ---\n%s", a, b)
	}
	if a != golden {
		t.Errorf("render drifted from golden:\n--- got ---\n%s--- want ---\n%s", a, golden)
	}
}
