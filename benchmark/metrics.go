package main

import "fmt"

// metricDef declares one benchmark metric. The end-to-end list and the
// per-layer list below are the single source BENCHMARK.json mirrors
// (TestBenchmarkJSONMatchesRegistry pins the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string
}

// endToEnd are the metrics a user of either path sees, measured with
// tracing off and reported by every workload. The driver's contract
// makes every workload report every metric, so only quantities that
// exist on both paths live here; the path-specific ones of the issue
// (energy, delay, ingest/tick/read latency, ...) are per-layer metrics
// under their original names.
//
// The bounds of the three timed metrics are what the shared 2-core VM
// allows, not what one would like (README "Bounds"): in a quiet hour the
// quartile spread over ten seeds is 3-5% for tasks_per_s and up to 10%
// for cpu_ms_per_ktask, but the host slows every CPU-bound loop by 25%
// for seconds to minutes at a time, and the driver measured 17-19% on
// the closed loop. All three carry the contract's maximum.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"median set-up time: generate + characterize (+ encode bodies + harmonyd start to first /healthz 200); binary build excluded"},
	{"ok_share", "ratio", "higher", 0.005,
		"offline: scheduled/tasks; online: requests that were 2xx and (open loop) answered within their limit / requests sent"},
	{"tasks_per_s", "1/s", "higher", 0.25,
		"tasks through the system per second of wall time (offline: host time of SimulateStream; online: accepted tasks over the measured phase)"},
	{"cpu_ms_per_ktask", "ms", "lower", 0.25,
		"user+sys CPU of the process under test (offline: this process; online: harmonyd) per 1000 tasks over the measured phase"},
	{"active_machines_mean", "count", "lower", 0.01,
		"mean powered machines per control period (simulated series offline, returned plans online); deterministic"},
	{"switches_per_period", "count", "lower", 0.01,
		"machine on/off transitions per control period (SwitchEvents offline, plan-to-plan |delta active| online); deterministic"},
}

// values carries one run's measurements by metric name. Samples, when
// set, are the raw observations behind V (for the sample count and the
// quartiles of the table).
type values map[string]measurement

type measurement struct {
	V       float64
	Samples []float64
}

func (v values) set(name string, x float64)               { v[name] = measurement{V: x} }
func (v values) setN(name string, x float64, s []float64) { v[name] = measurement{V: x, Samples: s} }

// row is one reported metric: definition, value, and the spread of the
// samples behind it.
type row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// rows resolves defs against the measured values. End-to-end metrics
// must all be present and non-zero (strict); a per-layer metric a
// workload does not produce reads 0 with n=0 — the layer was bypassed.
func rows(defs []metricDef, v values, strict bool) ([]row, error) {
	out := make([]row, 0, len(defs))
	for _, d := range defs {
		m, ok := v[d.Name]
		if strict && (!ok || m.V == 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		r := row{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Value: m.V}
		switch {
		case len(m.Samples) > 0:
			s := summarize(m.Samples)
			r.N, r.Q1, r.Median, r.Q3 = s.N, s.Q1, s.Median, s.Q3
		case ok:
			r.N, r.Q1, r.Median, r.Q3 = 1, m.V, m.V, m.V
		}
		out = append(out, r)
	}
	return out, nil
}
