package layers

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/forecast"
	"harmony/internal/lp"
	"harmony/internal/queueing"
	"harmony/internal/trace"
)

// A probe times one layer's public function in isolation, on inputs
// captured from the traced run of the same workload (same scenario,
// same characterization) — never on a synthetic RNG scenario. Metrics
// are returned by name; a probe whose layer the workload bypasses
// returns nothing and the metric reads 0.

// Metrics is a probe's result by metric name.
type Metrics map[string]float64

func since(start time.Time) float64 { return float64(time.Since(start)) } // ns

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Inputs is what the probes of one traced run work on.
type Inputs struct {
	Types []classify.TaskType
	// History[n][t] is the arrival rate (tasks/s) of type n in period t,
	// as sched.Harmony records it.
	History [][]float64
	// Plans are the CBS-RELAX instances of the first ticks and Active the
	// machine counts the run decided on them (CapturePlans / the engine
	// replay).
	Plans  []*core.PlanInput
	Active [][]int
}

// probeTraceTasks caps the task sample of the trace-layer probes.
const probeTraceTasks = 100_000

// ProbeTrace times the generator and the two text decoders on the
// scenario's own task stream.
func ProbeTrace(sc Scenario) (Metrics, error) {
	src, err := trace.NewGenSource(sc.genConfig(sc.Hours), genChunk)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Machines: src.Meta().Machines, Horizon: src.Meta().Horizon, Tasks: make([]trace.Task, probeTraceTasks)}
	start := time.Now()
	got, err := trace.ReadChunk(src, tr.Tasks)
	if err != nil {
		return nil, err
	}
	if got == 0 {
		return nil, fmt.Errorf("trace probe: scenario generated no tasks")
	}
	tr.Tasks = tr.Tasks[:got]
	n := float64(got)
	m := Metrics{"trace.gen_ns_per_task": since(start) / n}

	// drain decodes into a buffer one task longer than the sample, so a
	// decoder that loses or invents tasks is caught.
	scratch := make([]trace.Task, got+1)
	drain := func(src trace.TaskSource) error {
		if decoded, err := trace.ReadChunk(src, scratch); err != nil {
			return err
		} else if decoded != got {
			return fmt.Errorf("trace probe: decoded %d of %d tasks", decoded, got)
		}
		return nil
	}
	var jsonl, csv bytes.Buffer
	if err := trace.Write(&jsonl, tr); err != nil {
		return nil, err
	}
	if err := trace.WriteCSV(&csv, tr); err != nil {
		return nil, err
	}
	start = time.Now()
	js, err := trace.NewJSONLSource(&jsonl)
	if err != nil {
		return nil, err
	}
	if err := drain(js); err != nil {
		return nil, err
	}
	m["trace.jsonl_decode_ns_per_task"] = since(start) / n
	start = time.Now()
	cs, err := trace.NewCSVSource(&csv, tr.Machines, tr.Horizon)
	if err != nil {
		return nil, err
	}
	if err := drain(cs); err != nil {
		return nil, err
	}
	m["trace.csv_decode_ns_per_task"] = since(start) / n
	return m, nil
}

// ProbeCharacterize times the two-step clustering on the scenario's 2 h
// prefix with the facade's defaults.
func ProbeCharacterize(sc Scenario, prefixHours float64) (Metrics, error) {
	tr, err := trace.Generate(sc.genConfig(prefixHours))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := classify.Characterize(tr, classify.Config{MaxK: 12, MinGain: 0.05, Seed: sc.Seed}); err != nil {
		return nil, err
	}
	return Metrics{"classify.characterize_s": since(start) / 1e9}, nil
}

// busiest is the type with the most arrivals — the series the forecast
// probes fit.
func (in *Inputs) busiest() []float64 {
	var best []float64
	bestSum := 0.0
	for _, h := range in.History {
		sum := 0.0
		for _, r := range h {
			sum += r
		}
		if sum > bestSum {
			best, bestSum = h, sum
		}
	}
	return best
}

const fitRepeats = 5

// timeFit is the median time of Fit+Forecast(2) on series, in µs; 0
// when the model cannot fit it (too short for its season).
func timeFit(newModel func() (forecast.Predictor, error), series []float64) float64 {
	var us []float64
	for i := 0; i < fitRepeats; i++ {
		p, err := newModel()
		if err != nil {
			return 0
		}
		start := time.Now()
		if err := p.Fit(series); err != nil {
			return 0
		}
		if _, err := p.Forecast(mpcHorizon); err != nil {
			return 0
		}
		us = append(us, since(start)/1e3)
	}
	return median(us)
}

func cut(series []float64, n int) []float64 {
	if len(series) > n {
		return series[:n]
	}
	return series
}

// ProbeForecast times every forecaster on the busiest class's captured
// arrival history, cut at one day (288 periods) and at the run's end.
func ProbeForecast(in *Inputs) Metrics {
	series := in.busiest()
	if len(series) == 0 {
		return nil
	}
	season := int(trace.Day / periodSeconds)
	arima := func() (forecast.Predictor, error) { return forecast.NewARIMA(2, 0, 1) }
	day := cut(series, season)
	return Metrics{
		"forecast.history_len":             float64(len(series)),
		"forecast.fits_per_tick":           float64(len(in.Types)),
		"forecast.arima_fit_us_h288":       timeFit(arima, day),
		"forecast.arima_fit_us_hmid":       timeFit(arima, cut(series, len(series)/2)),
		"forecast.arima_fit_us_hmax":       timeFit(arima, series),
		"forecast.auto_fit_us_h288":        timeFit(func() (forecast.Predictor, error) { return &forecast.AutoARIMA{}, nil }, day),
		"forecast.seasonal_fit_us_h288":    timeFit(func() (forecast.Predictor, error) { return &forecast.SeasonalNaive{Season: season}, nil }, day),
		"forecast.ewma_fit_us_h288":        timeFit(func() (forecast.Predictor, error) { return &forecast.EWMA{Alpha: 0.4}, nil }, day),
		"forecast.holtwinters_fit_us_h576": timeFit(func() (forecast.Predictor, error) { return &forecast.HoltWinters{Season: season}, nil }, cut(series, 2*season)),
	}
}

// sloDelay mirrors sched.NewHarmony's default targets.
var sloDelay = map[trace.PriorityGroup]float64{trace.Production: 120, trace.Other: 300, trace.Gratis: 900}

// ProbeQueueing times the M/G/c container solver cold and warm-started
// on (λ, μ, CV², SLO) tuples of the captured run: λ is each type's
// arrival rate in a period, the hint the answer for the period before.
func ProbeQueueing(in *Inputs) (Metrics, error) {
	type tuple struct {
		lambda, prev, mu, sqCV, slo float64
	}
	var tuples []tuple
	for n, tt := range in.Types {
		h := in.History[n]
		for t := 1; t < len(h); t++ {
			if h[t] > 0 && h[t-1] > 0 {
				tuples = append(tuples, tuple{h[t], h[t-1], 1 / tt.MeanDuration, tt.SqCV, sloDelay[tt.Group]})
			}
		}
	}
	if len(tuples) == 0 {
		return nil, nil
	}
	if len(tuples) > 4096 {
		tuples = tuples[len(tuples)-4096:]
	}
	hints := make([]int, len(tuples))
	for i, tu := range tuples {
		c, err := queueing.MinContainers(tu.prev, tu.mu, tu.sqCV, tu.slo)
		if err != nil {
			return nil, err
		}
		hints[i] = c
	}
	n := float64(len(tuples))
	run := func(hinted bool) (ns, evals float64, err error) {
		evals0 := queueing.WaitEvals()
		start := time.Now()
		for i, tu := range tuples {
			hint := 0
			if hinted {
				hint = hints[i]
			}
			if _, err := queueing.MinContainersHint(tu.lambda, tu.mu, tu.sqCV, tu.slo, hint); err != nil {
				return 0, 0, err
			}
		}
		return since(start) / n, float64(queueing.WaitEvals()-evals0) / n, nil
	}
	coldNs, coldEvals, err := run(false)
	if err != nil {
		return nil, err
	}
	hintNs, hintEvals, err := run(true)
	if err != nil {
		return nil, err
	}
	return Metrics{
		"queueing.min_containers_cold_ns": coldNs,
		"queueing.min_containers_hint_ns": hintNs,
		"queueing.wait_evals_cold":        coldEvals,
		"queueing.wait_evals_hint":        hintEvals,
	}, nil
}

// planDumpEnv is core.Controller.Step's debug hook: when set, every
// Step writes its PlanInput there. The capture passes use it to obtain
// the exact LP instances of a run — machine and container specs,
// demand, prices and initial state, pressure-escalated values included.
const planDumpEnv = "HARMONY_DUMP_PLAN"

// capturePlan runs step with the dump hook armed and returns the
// PlanInput it wrote.
func capturePlan(path string, step func() error) (*core.PlanInput, error) {
	if err := os.Setenv(planDumpEnv, path); err != nil {
		return nil, err
	}
	defer os.Unsetenv(planDumpEnv)
	if err := step(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan dump: %w", err)
	}
	var in core.PlanInput
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("plan dump: %w", err)
	}
	return &in, os.Remove(path)
}

// capturedTicks bounds the capture passes and the core probes: LP cost
// does not grow with the horizon, so the first day is representative.
const capturedTicks = 288

// CapturePlans replays the observations of a traced offline run through
// a fresh policy with the dump hook armed. The replay must decide what
// the traced run decided, tick for tick.
func CapturePlans(sc Scenario, ticks []Tick, dumpPath string) (*Inputs, error) {
	ch, err := sc.characterization()
	if err != nil {
		return nil, err
	}
	in := &Inputs{Types: ch.TaskTypes()}
	in.History = make([][]float64, len(in.Types))
	for _, tk := range ticks {
		for n := range in.Types {
			in.History[n] = append(in.History[n], float64(tk.Obs.Arrivals[n])/periodSeconds)
		}
	}
	machines, models := sc.population()
	h, err := newHarmony(machines, models, in.Types)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(ticks) && i < capturedTicks; i++ {
		tk := &ticks[i]
		var active []int
		plan, err := capturePlan(dumpPath, func() error {
			active = h.Period(&tk.Obs).TargetActive
			return h.Err()
		})
		if err != nil {
			return nil, fmt.Errorf("capture pass tick %d: %w", i, err)
		}
		if !equalInts(active, tk.TargetActive) {
			return nil, fmt.Errorf("capture pass diverged at tick %d: %v vs traced %v", i, active, tk.TargetActive)
		}
		in.Plans = append(in.Plans, plan)
		in.Active = append(in.Active, append([]int(nil), active...))
	}
	return in, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coldSamples is how many ticks the cold-solve probe visits.
const coldSamples = 16

// ProbeCore times CBS-RELAX cold and warm, the rounding/placement pass
// full and delta, and a shadow Controller.Step chain, all on the
// captured LP instances. The shadow chain must reproduce the captured
// decisions exactly; matched reports whether it did.
func ProbeCore(in *Inputs) (m Metrics, matched bool, err error) {
	if len(in.Plans) == 0 {
		return nil, true, nil
	}
	ms := func(ns float64) float64 { return ns / 1e6 }

	var coldMs, coldIters []float64
	stride := len(in.Plans)/coldSamples + 1
	for i := 0; i < len(in.Plans); i += stride {
		start := time.Now()
		plan, err := core.SolveRelaxed(in.Plans[i])
		if err != nil {
			return nil, false, err
		}
		coldMs = append(coldMs, ms(since(start)))
		coldIters = append(coldIters, float64(plan.Iterations))
	}

	var warmMs, warmIters []float64
	var basis *lp.Basis
	for i, pi := range in.Plans {
		start := time.Now()
		plan, next, err := core.SolveRelaxedWarm(pi, basis)
		if err != nil {
			return nil, false, err
		}
		if basis = next; i > 0 { // tick 0 has no basis to start from
			warmMs = append(warmMs, ms(since(start)))
			warmIters = append(warmIters, float64(plan.Iterations))
		}
	}

	first := in.Plans[0]
	newController := func() *core.Controller {
		return &core.Controller{
			Machines:      first.Machines,
			Containers:    append([]core.ContainerSpec(nil), first.Containers...),
			PeriodSeconds: first.PeriodSeconds,
			Horizon:       first.Horizon,
			Mode:          core.CBS,
		}
	}
	shadow, repack := newController(), newController()
	var stepMs, fullUs, deltaUs []float64
	var prev *core.Decision
	dropped, planned := 0, 0
	matched = true
	for i, pi := range in.Plans {
		copy(shadow.Containers, pi.Containers) // pressure escalation moves Values between ticks
		copy(repack.Containers, pi.Containers)
		start := time.Now()
		dec, err := shadow.Step(pi.InitialActive, pi.Demand, pi.Price)
		if err != nil {
			return nil, false, err
		}
		stepMs = append(stepMs, ms(since(start)))
		if !equalInts(dec.ActiveMachines, in.Active[i]) {
			matched = false
		}
		for _, d := range dec.Dropped {
			dropped += d
		}
		for _, row := range dec.Quota {
			for _, q := range row {
				planned += q
			}
		}

		start = time.Now()
		if _, err := repack.Realize(dec.Plan); err != nil {
			return nil, false, err
		}
		fullUs = append(fullUs, since(start)/1e3)
		start = time.Now()
		if _, err := repack.RealizeDelta(prev, dec.Plan); err != nil {
			return nil, false, err
		}
		if prev != nil {
			deltaUs = append(deltaUs, since(start)/1e3)
		}
		prev = dec
	}
	ds := shadow.DeltaStats()
	m = Metrics{
		"core.relax_cold_ms":      median(coldMs),
		"core.relax_warm_ms":      median(warmMs),
		"lp.iterations_cold":      median(coldIters),
		"lp.iterations_warm":      median(warmIters),
		"core.step_ms":            median(stepMs),
		"core.realize_full_us":    median(fullUs),
		"core.realize_delta_us":   median(deltaUs),
		"core.delta_full_repacks": float64(ds.FullRepacks),
		"core.plan_dropped_share": 0,
		"core.delta_reuse_ratio":  0,
		"core.captured_ticks":     float64(len(in.Plans)),
	}
	if total := ds.ReusedTypes + ds.RepackedTypes; total > 0 {
		m["core.delta_reuse_ratio"] = float64(ds.ReusedTypes) / float64(total)
	}
	if planned+dropped > 0 {
		m["core.plan_dropped_share"] = float64(dropped) / float64(planned+dropped)
	}
	return m, matched, nil
}
