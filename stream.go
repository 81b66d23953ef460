package harmony

import (
	"fmt"
	"runtime"
	"time"

	"harmony/internal/trace"
)

// StreamConfig parameterizes a streaming simulation run: the workload is
// generated chunk by chunk and consumed in submit order, so peak memory
// is O(live tasks + machines) instead of O(trace length). A 25M-task
// Google-scale month fits on a laptop this way.
type StreamConfig struct {
	// Workload selects the generator parameters and cluster population,
	// exactly as GenerateWorkload interprets them.
	Workload WorkloadConfig
	// MaxDelaySamples caps the per-group scheduling-delay samples kept
	// for the CDFs, via seeded reservoir sampling. Default 100 000;
	// a negative value keeps every sample (exact CDFs, O(tasks) memory).
	MaxDelaySamples int
}

const (
	// streamChunkSize is the generator refill granularity in tasks.
	streamChunkSize = 4096
	// heapSampleEvery is how often, in tasks, the scale meter reads the
	// heap for the peak-heap proxy.
	heapSampleEvery = 65536
)

func (cfg *StreamConfig) defaults() {
	switch {
	case cfg.MaxDelaySamples == 0:
		cfg.MaxDelaySamples = 100_000
	case cfg.MaxDelaySamples < 0:
		cfg.MaxDelaySamples = 0 // exact CDFs
	}
}

// ScaleMetrics reports the throughput and memory profile of a streaming
// run. BytesPerTask counts cumulative allocation (runtime TotalAlloc
// delta over the run divided by tasks), not live heap; PeakHeapBytes is
// the largest live heap observed at the sample points and serves as an
// RSS proxy.
type ScaleMetrics struct {
	Tasks          int64
	WallSeconds    float64
	TasksPerSecond float64
	BytesPerTask   float64
	PeakHeapBytes  uint64
}

// SimulateStream runs the selected policy over a generated task stream
// without materializing the trace. The characterization is required for
// the HARMONY policies (characterize a short materialized sample of the
// same workload first) and may be nil for baseline/always-on.
func SimulateStream(cfg StreamConfig, c *Characterization, simCfg SimulationConfig) (*SimulationResult, *ScaleMetrics, error) {
	cfg.defaults()
	gen, models, err := cfg.Workload.generator()
	if err != nil {
		return nil, nil, err
	}
	src, err := trace.NewGenSource(gen, streamChunkSize)
	if err != nil {
		return nil, nil, fmt.Errorf("harmony: stream workload: %w", err)
	}
	meter := newMeterSource(src)
	start := time.Now()
	res, err := run(meter, models, c, simCfg, cfg.MaxDelaySamples)
	if err != nil {
		return nil, nil, err
	}
	return res, meter.metrics(time.Since(start)), nil
}

// meterSource wraps a TaskSource and measures the run around it: task
// count, allocation volume, and a sampled live-heap peak. It lives in
// the root package — the deterministic internal packages must not read
// the runtime clock or memory statistics themselves.
type meterSource struct {
	src        trace.TaskSource
	n          int64
	startTotal uint64
	peakHeap   uint64
}

func newMeterSource(src trace.TaskSource) *meterSource {
	m := &meterSource{src: src}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.startTotal = ms.TotalAlloc
	m.peakHeap = ms.HeapAlloc
	return m
}

func (m *meterSource) Meta() trace.Meta { return m.src.Meta() }

func (m *meterSource) Next(t *trace.Task) (bool, error) {
	ok, err := m.src.Next(t)
	if ok {
		m.n++
		if m.n%heapSampleEvery == 0 {
			m.sample()
		}
	}
	return ok, err
}

func (m *meterSource) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peakHeap {
		m.peakHeap = ms.HeapAlloc
	}
}

// metrics finalizes the measurements after the run completes. It takes
// one last heap sample so short runs (fewer tasks than the sample
// interval) still report a meaningful peak.
func (m *meterSource) metrics(wall time.Duration) *ScaleMetrics {
	m.sample()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := &ScaleMetrics{
		Tasks:         m.n,
		WallSeconds:   wall.Seconds(),
		PeakHeapBytes: m.peakHeap,
	}
	if m.n > 0 {
		out.BytesPerTask = float64(ms.TotalAlloc-m.startTotal) / float64(m.n)
	}
	if out.WallSeconds > 0 {
		out.TasksPerSecond = float64(m.n) / out.WallSeconds
	}
	return out
}
