// Package metrics is a minimal, dependency-free metrics registry with
// Prometheus text exposition (the subset of the format harmonyd's
// /metrics endpoint needs): counters, gauges, histograms, and labeled
// variants of the scalar kinds. All operations are safe for concurrent
// use and the rendered output is deterministic (sorted by metric name,
// then label value), so it can be asserted byte-for-byte in tests.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// are monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	// mu guards the fields below.
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []uint64  // len(bounds)+1, last is the +Inf bucket
	sum     float64
	samples uint64
}

// DefBuckets are the default latency buckets in seconds.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.samples++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

// metric is one registered family.
type metric struct {
	name, help, kind string
	counter          *Counter
	gauge            *Gauge
	hist             *Histogram
	vec              *vec
	labelName        string
}

// vec is a label-value-indexed family of scalar children.
type vec struct {
	// mu guards the fields below.
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	// mu guards the fields below.
	mu       sync.Mutex
	families map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*metric)}
}

// lookupLocked finds or creates the family. Callers hold r.mu — the
// child-metric lazy init must happen under the same critical section as
// the family lookup, or two concurrent registrations of the same name
// could each hand out a different child and split its increments.
func (r *Registry) lookupLocked(name, help, kind string) *metric {
	if m, ok := r.families[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.families[name] = m
	return m
}

// Counter registers (or returns the existing) counter with the name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookupLocked(name, help, "counter")
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or returns the existing) gauge with the name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookupLocked(name, help, "gauge")
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// Histogram registers a histogram with the given bucket upper bounds
// (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookupLocked(name, help, "histogram")
	if m.hist == nil {
		m.hist = newHistogram(buckets)
	}
	return m.hist
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, labelName string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookupLocked(name, help, "counter")
	if m.vec == nil {
		m.vec = &vec{counters: make(map[string]*Counter)}
		m.labelName = labelName
	}
	return &CounterVec{m: m}
}

// GaugeVec registers a gauge family keyed by one label.
func (r *Registry) GaugeVec(name, help, labelName string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookupLocked(name, help, "gauge")
	if m.vec == nil {
		m.vec = &vec{gauges: make(map[string]*Gauge)}
		m.labelName = labelName
	}
	return &GaugeVec{m: m}
}

// CounterVec hands out per-label-value counters.
type CounterVec struct{ m *metric }

// With returns the child counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	v.m.vec.mu.Lock()
	defer v.m.vec.mu.Unlock()
	c, ok := v.m.vec.counters[value]
	if !ok {
		c = &Counter{}
		v.m.vec.counters[value] = c
	}
	return c
}

// GaugeVec hands out per-label-value gauges.
type GaugeVec struct{ m *metric }

// With returns the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge {
	v.m.vec.mu.Lock()
	defer v.m.vec.mu.Unlock()
	g, ok := v.m.vec.gauges[value]
	if !ok {
		g = &Gauge{}
		v.m.vec.gauges[value] = g
	}
	return g
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper escapes a label value as the text format specifies: only
// backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Render writes the registry in Prometheus text exposition format.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		switch {
		case m.hist != nil:
			m.hist.mu.Lock()
			cum := uint64(0)
			for i, bound := range m.hist.bounds {
				cum += m.hist.counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatValue(bound), cum)
			}
			cum += m.hist.counts[len(m.hist.bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatValue(m.hist.sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, cum)
			m.hist.mu.Unlock()
		case m.vec != nil:
			m.vec.mu.Lock()
			vals := make([]string, 0, len(m.vec.counters)+len(m.vec.gauges))
			for v := range m.vec.counters {
				vals = append(vals, v)
			}
			for v := range m.vec.gauges {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				var x float64
				if c := m.vec.counters[v]; c != nil {
					x = c.Value()
				} else {
					x = m.vec.gauges[v].Value()
				}
				fmt.Fprintf(&b, "%s{%s=\"%s\"} %s\n", m.name, m.labelName, labelEscaper.Replace(v), formatValue(x))
			}
			m.vec.mu.Unlock()
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(m.counter.Value()))
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatValue(m.gauge.Value()))
		}
	}
	return b.String()
}
