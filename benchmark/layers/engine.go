package layers

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/daemon"
	"harmony/internal/metrics"
	"harmony/internal/sched"
	"harmony/internal/tenant"
	"harmony/internal/trace"
)

// The online in-process probes: the very request bodies the benchmark
// sent to harmonyd, decoded with daemon.DecodeTasks and replayed through
// daemon.Engine (or tenant.Multi) window by window. The replay's final
// plan must equal the one the subprocess returned, byte for byte, which
// proves the probes time the same program on the same input.

// Window is the POST bodies of one control period, in send order.
type Window [][]byte

// engineConfig is what cmd/harmonyd builds from its default flags.
func (sc Scenario) engineConfig(ch *classify.Characterization, reg *metrics.Registry) daemon.Config {
	machines, models := sc.population()
	return daemon.Config{
		Machines:      machines,
		Models:        models,
		Char:          ch,
		Mode:          core.CBS,
		PeriodSeconds: periodSeconds,
		Horizon:       mpcHorizon,
		Forecaster:    sched.PredictARIMA,
		Registry:      reg,
	}
}

// encodePlan renders a plan the way both HTTP servers do.
func encodePlan(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// controlLoop is the part of daemon.Engine and tenant.Multi the replay
// drives, plus what the capture pass needs to arm the dump hook on one
// engine only.
type controlLoop struct {
	ingest   func(trace.Task) error
	tick     func() (any, error) // the value the tick route would encode
	snapshot func()
	first    *daemon.Engine        // the engine whose LP instances are captured
	rest     []*daemon.Engine      // the other groups' engines
	mine     func(trace.Task) bool // whether a task routes to first
}

// newControlLoop builds the control loop harmonyd runs with default
// flags: one engine, or tenant.Multi when a tenants document is given.
func (sc Scenario) newControlLoop(ch *classify.Characterization, doc *tenant.Document, reg *metrics.Registry) (*controlLoop, error) {
	cfg := sc.engineConfig(ch, reg)
	if doc == nil {
		eng, err := daemon.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		return &controlLoop{
			ingest:   eng.Ingest,
			tick:     func() (any, error) { return eng.Tick(context.Background()) },
			snapshot: func() { eng.Snapshot() },
			first:    eng,
			mine:     func(trace.Task) bool { return true },
		}, nil
	}
	multi, err := tenant.New(tenant.Config{Base: cfg, Tenants: doc.Tenants, SLOTolerance: doc.SLOTolerance, Registry: reg})
	if err != nil {
		return nil, err
	}
	groups := multi.Groups()
	inFirst := map[string]bool{}
	for _, ts := range multi.Snapshot().Tenants {
		inFirst[ts.Name] = ts.Group == groups[0].Name()
	}
	loop := &controlLoop{
		ingest: multi.Ingest,
		tick: func() (any, error) {
			plans, err := multi.Tick(context.Background())
			return struct {
				Groups map[string]*daemon.Plan `json:"groups"`
			}{plans}, err
		},
		snapshot: func() { multi.Snapshot() },
		first:    groups[0].Engine(),
		mine:     func(t trace.Task) bool { return inFirst[t.Tenant] },
	}
	for _, g := range groups[1:] {
		loop.rest = append(loop.rest, g.Engine())
	}
	return loop, nil
}

func timeMedian(repeats int, f func()) float64 { // ns
	var ns []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		f()
		ns = append(ns, since(start))
	}
	return median(ns)
}

// onlineReplay is the shared state of the in-process passes: the
// characterization, the decoded windows, and which control loop to build.
type onlineReplay struct {
	sc      Scenario
	ch      *classify.Characterization
	doc     *tenant.Document // nil = single-tenant engine
	decoded [][]trace.Task   // per control period
	total   int
}

// ReplayOnline decodes the windows, drives them through the in-process
// control loop harmonyd runs (tenantsJSON selects tenant.Multi), and
// returns the daemon/tenant/metrics layer metrics, the final plan as the
// tick route would render it, and the probe inputs (arrival history and
// the LP instances of the first ticks) for the layers inside the tick.
func ReplayOnline(sc Scenario, windows []Window, tenantsJSON []byte, dumpPath string) (Metrics, []byte, *Inputs, error) {
	r := &onlineReplay{sc: sc}
	var err error
	if r.ch, err = sc.characterization(); err != nil {
		return nil, nil, nil, err
	}
	if tenantsJSON != nil {
		if r.doc, err = tenant.Load(bytes.NewReader(tenantsJSON)); err != nil {
			return nil, nil, nil, err
		}
	}
	m := Metrics{}
	if err := r.decode(windows, m); err != nil {
		return nil, nil, nil, err
	}
	finalPlan, err := r.timedPass(m)
	if err != nil {
		return nil, nil, nil, err
	}
	in, err := r.capturePass(dumpPath, m)
	if err != nil {
		return nil, nil, nil, err
	}
	return m, finalPlan, in, nil
}

// decode runs daemon.DecodeTasks on the very bodies sent.
func (r *onlineReplay) decode(windows []Window, m Metrics) error {
	r.decoded = make([][]trace.Task, len(windows))
	start := time.Now()
	for k, w := range windows {
		for _, body := range w {
			tasks, err := daemon.DecodeTasks(bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("decode window %d: %w", k, err)
			}
			r.decoded[k] = append(r.decoded[k], tasks...)
			r.total += len(tasks)
		}
	}
	if r.total == 0 {
		return fmt.Errorf("online replay: no tasks in %d windows", len(windows))
	}
	m["daemon.decode_ns_per_task"] = since(start) / float64(r.total)
	return nil
}

// timedPass drives every window through a fresh control loop with no
// hook armed and times Ingest, Tick, and the read-side calls. It returns
// the final plan as the tick route renders it.
func (r *onlineReplay) timedPass(m Metrics) ([]byte, error) {
	reg := metrics.NewRegistry()
	loop, err := r.sc.newControlLoop(r.ch, r.doc, reg)
	if err != nil {
		return nil, err
	}
	var ingestNs float64
	var tickMs []float64
	var last any
	for k, tasks := range r.decoded {
		start := time.Now()
		for _, t := range tasks {
			if err := loop.ingest(t); err != nil {
				return nil, fmt.Errorf("ingest window %d: %w", k, err)
			}
		}
		ingestNs += since(start)
		start = time.Now()
		if last, err = loop.tick(); err != nil {
			return nil, fmt.Errorf("tick %d: %w", k, err)
		}
		tickMs = append(tickMs, since(start)/1e6)
	}
	layer := "daemon"
	if r.doc != nil {
		layer = "tenant"
	}
	m[layer+".ingest_ns_per_task"] = ingestNs / float64(r.total)
	m[layer+".tick_ms_p50"] = median(tickMs)
	m["daemon.snapshot_us"] = timeMedian(50, loop.snapshot) / 1e3
	if r.doc == nil {
		// Only daemon.Server's /v1/stats runs the backtest.
		m["daemon.forecast_backtest_ms"] = timeMedian(3, func() { loop.first.ForecastBacktest() }) / 1e6
	}
	m["metrics.render_us"] = timeMedian(20, func() { reg.Render() }) / 1e3
	return encodePlan(last)
}

// capturePass drives the first ticks through a fresh loop with the dump
// hook armed on one engine (group ticks run one after another, so two
// engines never write the dump file at once). It is also the classify
// probe: every task is labeled once more, outside the engine, which bins
// the arrival history the forecast and queueing probes fit.
func (r *onlineReplay) capturePass(dumpPath string, m Metrics) (*Inputs, error) {
	loop, err := r.sc.newControlLoop(r.ch, r.doc, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	in := &Inputs{Types: r.ch.TaskTypes()}
	in.History = make([][]float64, len(in.Types))
	labeler := classify.NewLabeler(r.ch)
	typeIdx := make(map[classify.TypeID]int, len(in.Types))
	for i, tt := range in.Types {
		typeIdx[tt.ID] = i
	}
	var labelNs float64
	for k, tasks := range r.decoded {
		arrivals := make([]int, len(in.Types))
		start := time.Now()
		for _, t := range tasks {
			if id, ok := labeler.Initial(t); ok && loop.mine(t) {
				arrivals[typeIdx[id]]++
			}
		}
		labelNs += since(start)
		for n, a := range arrivals {
			in.History[n] = append(in.History[n], float64(a)/periodSeconds)
		}
		if k >= capturedTicks {
			continue
		}
		for _, t := range tasks {
			if err := loop.ingest(t); err != nil {
				return nil, err
			}
		}
		var plan *daemon.Plan
		pi, err := capturePlan(dumpPath, func() (err error) {
			plan, err = loop.first.Tick(context.Background())
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("capture pass tick %d: %w", k, err)
		}
		for _, e := range loop.rest {
			if _, err := e.Tick(context.Background()); err != nil {
				return nil, fmt.Errorf("capture pass tick %d: %w", k, err)
			}
		}
		active := make([]int, len(plan.Machines))
		for i, mp := range plan.Machines {
			active[i] = mp.Active
		}
		in.Plans = append(in.Plans, pi)
		in.Active = append(in.Active, active)
	}
	m["classify.initial_ns_per_task"] = labelNs / float64(r.total)
	m["classify.initial_calls"] = float64(r.total)
	return in, nil
}
