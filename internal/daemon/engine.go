// Package daemon turns the batch HARMONY pipeline into a long-running
// online provisioning service: tasks stream in over HTTP, are classified
// by nearest centroid the moment they arrive (short sub-class first), and
// every control-period tick the incremental control loop — per-class
// arrival-rate windows, ARIMA refit, M/G/c container sizing, CBS-RELAX +
// MPC, First-Fit realization — produces a fresh machine plan.
//
// The control loop is the same sched.Harmony policy the simulator drives,
// fed synthetic observations built from the ingest state, so a streamed
// trace prefix and a batch replay of the same prefix produce bit-identical
// plans (Replay is that batch reference, and the end-to-end test asserts
// the equivalence).
package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/forecast"
	"harmony/internal/metrics"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// Config parameterizes the online controller.
type Config struct {
	Machines []trace.MachineType
	Models   []energy.Model
	Char     *classify.Characterization

	Mode          core.Mode // CBS (default) or CBP
	PeriodSeconds float64   // control period in model time (default 300)
	// Horizon passes through to sched.HarmonyConfig, which owns its
	// default (as it does ε and ω); the electricity price and switching
	// cost are energy's defaults.
	Horizon    int                             // MPC look-ahead periods
	SLODelay   map[trace.PriorityGroup]float64 // target scheduling delay (s) per group
	Forecaster sched.PredictorKind

	// Registry receives the daemon's metrics; a private registry is
	// created when nil.
	Registry *metrics.Registry
}

func (cfg *Config) defaults() {
	if cfg.Mode == 0 {
		cfg.Mode = core.CBS
	}
	if cfg.PeriodSeconds <= 0 {
		cfg.PeriodSeconds = 300
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
}

// MachinePlan is the provisioning decision for one machine type.
type MachinePlan struct {
	Type       int    `json:"type"`     // machine type id
	Platform   string `json:"platform"` // micro-architecture identifier
	Active     int    `json:"active"`   // machines to keep powered
	Available  int    `json:"available"`
	Containers []int  `json:"containers"` // per-task-type container quota
}

// Plan is one control period's provisioning decision — the daemon's
// primary output, served at /v1/plan.
type Plan struct {
	PeriodIndex     int           `json:"periodIndex"` // 1-based tick count
	ModelTime       float64       `json:"modelTime"`   // seconds of model time at the boundary
	Mode            string        `json:"mode"`        // CBS or CBP
	TotalActive     int           `json:"totalActive"`
	TotalContainers int           `json:"totalContainers"`
	Dropped         int           `json:"dropped"` // containers the packing could not place
	Machines        []MachinePlan `json:"machines"`
}

// Stats is the observability snapshot served at /v1/stats.
type Stats struct {
	TasksIngested  uint64            `json:"tasksIngested"`
	TasksByGroup   map[string]uint64 `json:"tasksByGroup"`
	LabelFallbacks uint64            `json:"labelFallbacks"`
	Relabels       uint64            `json:"relabels"`
	OpenTasks      int               `json:"openTasks"`

	Ticks           uint64  `json:"ticks"`
	TickErrors      uint64  `json:"tickErrors"`
	TicksSkipped    uint64  `json:"ticksSkipped"`
	TicksLate       uint64  `json:"ticksLate"`
	LastTickSeconds float64 `json:"lastTickSeconds"`
	ForecastMAE     float64 `json:"forecastMAE"` // tasks/period, over short types

	// Delta-placement counters (core.DeltaStats, cumulative since start):
	// machine types whose packings were reused across ticks, types
	// repacked because their plan projection changed, and realizations
	// that fell back to a full repack.
	DeltaReusedTypes   uint64 `json:"deltaReusedTypes"`
	DeltaRepackedTypes uint64 `json:"deltaRepackedTypes"`
	DeltaFullRepacks   uint64 `json:"deltaFullRepacks"`

	PeriodSeconds float64 `json:"periodSeconds"`
	PeriodIndex   int     `json:"periodIndex"`
	ModelTime     float64 `json:"modelTime"`
	Classes       int     `json:"classes"`
	TaskTypes     int     `json:"taskTypes"`
	TotalActive   int     `json:"totalActive"`
	LastError     string  `json:"lastError,omitempty"`
}

// openTask is a task the daemon believes is still running: its label may
// still be upgraded short → long as observed runtime accumulates.
type openTask struct {
	typ      int
	submit   float64
	duration float64
}

// Engine is the mutex-guarded online controller: Ingest and Tick may be
// called from any goroutine; all state lives behind mu except the policy,
// which only the single in-flight tick touches (guarded by solving).
type Engine struct {
	cfg     Config
	price   energy.Price
	types   []classify.TaskType
	labeler *classify.Labeler

	// solving serializes ticks without blocking ingest: the policy and
	// MPC state transition are owned by whichever tick holds the flag.
	solving atomic.Bool
	policy  *sched.Harmony

	mTasks       *metrics.CounterVec
	mFallbacks   *metrics.Counter
	mRelabels    *metrics.Counter
	mOpen        *metrics.Gauge
	mTicks       *metrics.Counter
	mTickErrs    *metrics.Counter
	mTickSkips   *metrics.Counter
	mTickLate    *metrics.Counter
	mTickSecs    *metrics.Histogram
	mActive      *metrics.Gauge
	mActiveByTyp *metrics.GaugeVec
	mContainers  *metrics.Gauge
	mForecastMAE *metrics.Gauge
	mDeltaReuse  *metrics.Gauge
	mDeltaRepack *metrics.Gauge
	mDeltaFull   *metrics.Gauge

	// mu guards the fields below.
	mu           sync.Mutex
	now          float64 // model time of the last tick boundary
	periodIdx    int     // completed ticks
	arrivals     []int   // per type, since the last tick
	open         []openTask
	plan         *Plan
	active       []int // machines powered per type (MPC state)
	prevForecast []float64
	stats        Stats
	// arrHist[n] is the last backtestCap arrival windows (tasks/period)
	// of short type n — the series ForecastBacktest evaluates. Long
	// sub-types receive no direct arrivals and keep empty histories.
	arrHist [][]float64
}

// Tick coordination errors.
var (
	// ErrTickInFlight is returned when a tick is requested while the
	// previous one is still solving.
	ErrTickInFlight = errors.New("daemon: tick already in flight")
	// ErrNoPlan is returned by Plan before the first completed tick.
	ErrNoPlan = errors.New("daemon: no plan yet")
)

// NewEngine validates the configuration and builds the online controller.
func NewEngine(cfg Config) (*Engine, error) {
	cfg.defaults()
	if len(cfg.Machines) == 0 {
		return nil, errors.New("daemon: no machine types")
	}
	if len(cfg.Models) != len(cfg.Machines) {
		return nil, fmt.Errorf("daemon: %d energy models for %d machine types",
			len(cfg.Models), len(cfg.Machines))
	}
	if cfg.Char == nil {
		return nil, errors.New("daemon: characterization required")
	}
	types := cfg.Char.TaskTypes()
	if len(types) == 0 {
		return nil, errors.New("daemon: characterization has no task types")
	}

	// Per-type switch costs scale with idle power relative to the
	// largest machine — the helper harmony.Simulate uses, so the daemon's
	// plans match the batch pipeline's.
	switchCost := energy.SwitchCosts(cfg.Models, energy.DefaultSwitchCostDollars)
	price := energy.FlatPrice(energy.DefaultPricePerKWh)
	policy, err := sched.NewHarmony(sched.HarmonyConfig{
		Mode:          cfg.Mode,
		Machines:      cfg.Machines,
		Models:        cfg.Models,
		Types:         types,
		Price:         price,
		PeriodSeconds: cfg.PeriodSeconds,
		Horizon:       cfg.Horizon,
		SLODelay:      cfg.SLODelay,
		SwitchCost:    switchCost,
		Predictor:     cfg.Forecaster,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: build policy: %w", err)
	}

	e := &Engine{
		cfg:      cfg,
		price:    price,
		types:    types,
		labeler:  classify.NewLabeler(cfg.Char),
		arrivals: make([]int, len(types)),
		active:   make([]int, len(cfg.Machines)),
		arrHist:  make([][]float64, len(types)),
		policy:   policy,
	}
	e.stats.TasksByGroup = make(map[string]uint64, trace.NumGroups)
	e.stats.PeriodSeconds = cfg.PeriodSeconds
	e.stats.Classes = len(cfg.Char.Classes)
	e.stats.TaskTypes = len(types)

	r := cfg.Registry
	e.mTasks = r.CounterVec("harmonyd_tasks_ingested_total", "Tasks ingested, by priority group.", "group")
	e.mFallbacks = r.Counter("harmonyd_label_fallback_total", "Tasks whose priority group had no class (labeled type 0).")
	e.mRelabels = r.Counter("harmonyd_relabels_total", "Short-to-long relabels driven by observed runtime.")
	e.mOpen = r.Gauge("harmonyd_open_tasks", "Tasks believed to be running at the last tick.")
	e.mTicks = r.Counter("harmonyd_ticks_total", "Completed control-period ticks.")
	e.mTickErrs = r.Counter("harmonyd_tick_errors_total", "Ticks whose control loop failed (previous plan kept).")
	e.mTickSkips = r.Counter("harmonyd_ticks_skipped_total", "Tick requests rejected because one was in flight.")
	e.mTickLate = r.Counter("harmonyd_ticks_late_total", "Ticks that finished after their deadline.")
	e.mTickSecs = r.Histogram("harmonyd_tick_duration_seconds", "Wall-clock latency of the control loop.", nil)
	e.mActive = r.Gauge("harmonyd_machines_active", "Machines the current plan keeps powered.")
	e.mActiveByTyp = r.GaugeVec("harmonyd_machines_active_by_type", "Machines the current plan keeps powered, by machine type.", "type")
	e.mContainers = r.Gauge("harmonyd_containers_planned", "Container slots in the current plan.")
	e.mForecastMAE = r.Gauge("harmonyd_forecast_mae_tasks", "Mean absolute error of the last per-type arrival forecast (tasks/period).")
	e.mDeltaReuse = r.Gauge("harmonyd_delta_reused_types", "Machine types whose packings the delta placement reused across ticks (cumulative).")
	e.mDeltaRepack = r.Gauge("harmonyd_delta_repacked_types", "Machine types repacked because their plan projection changed (cumulative).")
	e.mDeltaFull = r.Gauge("harmonyd_delta_full_repacks", "Realizations that fell back to a full repack (cumulative).")
	return e, nil
}

// NumTaskTypes returns the number of provisionable task types.
func (e *Engine) NumTaskTypes() int { return len(e.types) }

// PeriodSeconds returns the control period in model time.
func (e *Engine) PeriodSeconds() float64 { return e.cfg.PeriodSeconds }

// Ingest records one arriving task: nearest-centroid classification
// (short sub-class first), arrival accounting for the current window, and
// membership in the open set for later relabeling. It rejects a task that
// fails trace.Task.Validate, which both HTTP front-ends already apply at
// admission, for Replay and library callers.
func (e *Engine) Ingest(t trace.Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	tt, labeled := e.labeler.InitialIndex(t)
	if !labeled {
		e.mFallbacks.Inc()
	}
	e.mTasks.With(t.Group().String()).Inc()

	e.mu.Lock()
	e.arrivals[tt]++
	e.stats.TasksIngested++
	e.stats.TasksByGroup[t.Group().String()]++
	if !labeled {
		e.stats.LabelFallbacks++
	}
	if t.Submit+t.Duration > e.now {
		e.open = append(e.open, openTask{typ: tt, submit: t.Submit, duration: t.Duration})
	}
	e.mu.Unlock()
	return nil
}

// Tick runs one control period: advance model time by one period, retire
// finished tasks, relabel survivors by observed age, record the arrival
// window, and run the forecast → queueing → MPC → packing chain. The
// context bounds the solve; on expiry Tick returns ctx.Err() while the
// solve finishes in the background and publishes its (late) plan — the
// next tick is skipped with ErrTickInFlight until it does.
func (e *Engine) Tick(ctx context.Context) (*Plan, error) {
	if !e.solving.CompareAndSwap(false, true) {
		e.mTickSkips.Add(1)
		e.mu.Lock()
		e.stats.TicksSkipped++
		e.mu.Unlock()
		return nil, ErrTickInFlight
	}

	e.mu.Lock()
	e.now += e.cfg.PeriodSeconds
	e.periodIdx++
	now, idx := e.now, e.periodIdx

	// Retire finished tasks and relabel the survivors by observed age —
	// the paper's short-first policy: a short label is upgraded to long
	// once the task outlives its sub-class boundary.
	kept := e.open[:0]
	relabels := 0
	for _, ot := range e.open {
		if ot.submit+ot.duration <= now {
			continue
		}
		if next := e.labeler.RefreshIndex(ot.typ, now-ot.submit); next != ot.typ {
			ot.typ = next
			relabels++
		}
		kept = append(kept, ot)
	}
	e.open = kept
	running := make([]int, len(e.types))
	for _, ot := range e.open {
		running[ot.typ]++
	}
	arr := append([]int(nil), e.arrivals...)
	for i := range e.arrivals {
		e.arrivals[i] = 0
	}
	// Record the closed window for the rolling-origin backtest; every
	// direct arrival lands on a short sub-type under label-short-first.
	for i := range arr {
		if e.types[i].ID.Sub != 0 {
			continue
		}
		h := append(e.arrHist[i], float64(arr[i]))
		if len(h) > backtestCap {
			h = h[len(h)-backtestCap:]
		}
		e.arrHist[i] = h
	}
	active := append([]int(nil), e.active...)
	// Forecast accuracy: compare the previous tick's one-period-ahead
	// rate forecast with this window's observed arrivals (short types
	// carry every arrival under label-short-first).
	if e.prevForecast != nil {
		sum, n := 0.0, 0
		for i, r := range e.prevForecast {
			if e.types[i].ID.Sub != 0 {
				continue
			}
			sum += math.Abs(r*e.cfg.PeriodSeconds - float64(arr[i]))
			n++
		}
		if n > 0 {
			e.stats.ForecastMAE = sum / float64(n)
			e.mForecastMAE.Set(e.stats.ForecastMAE)
		}
	}
	e.stats.Relabels += uint64(relabels)
	openCount := len(e.open)
	e.stats.OpenTasks = openCount
	e.stats.PeriodIndex = idx
	e.stats.ModelTime = now
	e.mu.Unlock()
	e.mRelabels.Add(float64(relabels))
	e.mOpen.Set(float64(openCount))

	obs := &sim.Observation{
		Time:        now,
		PeriodIndex: idx - 1,
		Arrivals:    arr,
		Queued:      make([]int, len(e.types)),
		Running:     running,
		Active:      active,
		Price:       e.price.At(now),
	}

	type result struct {
		plan *Plan
		err  error
	}
	done := make(chan result, 1)
	start := time.Now() //harmony:allow detertaint tick latency metric; model time drives control
	go func() {
		plan, err := e.solve(obs, idx, now)
		elapsed := time.Since(start).Seconds() //harmony:allow detertaint tick latency metric; model time drives control
		e.mTickSecs.Observe(elapsed)
		e.mu.Lock()
		e.stats.LastTickSeconds = elapsed
		e.mu.Unlock()
		if ctx.Err() != nil {
			e.mTickLate.Add(1)
			e.mu.Lock()
			e.stats.TicksLate++
			e.mu.Unlock()
		}
		// Clear the flag before handing the result over: a caller that
		// ticks again the moment this one returns must not be skipped.
		e.solving.Store(false)
		done <- result{plan, err}
	}()
	select {
	case r := <-done:
		return r.plan, r.err
	case <-ctx.Done():
		// The solve continues in the background; its plan publishes
		// when ready and further ticks are skipped until then.
		return nil, fmt.Errorf("daemon: tick %d deadline: %w", idx, ctx.Err())
	}
}

// solve runs the policy and publishes the resulting plan; it is only ever
// executed by the single tick goroutine holding the solving flag.
func (e *Engine) solve(obs *sim.Observation, idx int, now float64) (*Plan, error) {
	dir := e.policy.Period(obs)
	if dir.TargetActive == nil {
		err := e.policy.Err()
		e.mTicks.Add(1)
		e.mTickErrs.Add(1)
		e.mu.Lock()
		e.stats.Ticks++
		e.stats.TickErrors++
		if err != nil {
			e.stats.LastError = err.Error()
		}
		e.mu.Unlock()
		if err == nil {
			err = errors.New("daemon: control loop produced no decision")
		}
		return nil, fmt.Errorf("daemon: tick %d: %w", idx, err)
	}
	dec := e.policy.LastDecision()
	plan := e.buildPlan(idx, now, dec)
	// Safe here: solve() owns the policy via the solving flag, and the
	// controller's counters only move inside Period.
	ds := e.policy.DeltaStats()

	e.mu.Lock()
	for m := range e.active {
		a := dec.ActiveMachines[m]
		if a < 0 {
			a = 0
		}
		if a > e.cfg.Machines[m].Count {
			a = e.cfg.Machines[m].Count
		}
		e.active[m] = a
	}
	e.plan = plan
	e.prevForecast = e.policy.LastForecast()
	e.stats.Ticks++
	e.stats.TotalActive = plan.TotalActive
	e.stats.DeltaReusedTypes = uint64(ds.ReusedTypes)
	e.stats.DeltaRepackedTypes = uint64(ds.RepackedTypes)
	e.stats.DeltaFullRepacks = uint64(ds.FullRepacks)
	e.mu.Unlock()

	e.mTicks.Add(1)
	e.mDeltaReuse.Set(float64(ds.ReusedTypes))
	e.mDeltaRepack.Set(float64(ds.RepackedTypes))
	e.mDeltaFull.Set(float64(ds.FullRepacks))
	e.mActive.Set(float64(plan.TotalActive))
	for _, mp := range plan.Machines {
		e.mActiveByTyp.With(fmt.Sprint(mp.Type)).Set(float64(mp.Active))
	}
	e.mContainers.Set(float64(plan.TotalContainers))
	return plan, nil
}

func (e *Engine) buildPlan(idx int, now float64, dec *core.Decision) *Plan {
	plan := &Plan{
		PeriodIndex: idx,
		ModelTime:   now,
		Mode:        e.cfg.Mode.String(),
		Machines:    make([]MachinePlan, len(e.cfg.Machines)),
	}
	for m, mt := range e.cfg.Machines {
		mp := MachinePlan{
			Type:       mt.ID,
			Platform:   mt.Platform,
			Active:     dec.ActiveMachines[m],
			Available:  mt.Count,
			Containers: append([]int(nil), dec.Quota[m]...),
		}
		plan.TotalActive += mp.Active
		for _, q := range mp.Containers {
			plan.TotalContainers += q
		}
		plan.Machines[m] = mp
	}
	for _, d := range dec.Dropped {
		plan.Dropped += d
	}
	return plan
}

// Plan returns the most recent provisioning decision.
func (e *Engine) Plan() (*Plan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plan == nil {
		return nil, ErrNoPlan
	}
	return e.plan, nil
}

// Snapshot returns a copy of the daemon's statistics.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.TasksByGroup = make(map[string]uint64, len(e.stats.TasksByGroup))
	for k, v := range e.stats.TasksByGroup {
		s.TasksByGroup[k] = v
	}
	return s
}

// Rolling-origin backtest parameters: the history window kept per class
// (256 windows ≈ 21 hours at the default 5-minute period) and the
// training prefix before the first evaluated forecast.
const (
	backtestCap      = 256
	backtestMinTrain = 8
)

// ForecastBacktest runs a rolling-origin backtest of the control loop's
// forecast chain (sched.ForecastChain: the EWMA bootstrap below its
// minimum history, the configured predictor after it, the EWMA again
// when a fit degenerates) over each class's recorded arrival windows: at
// every origin past the training prefix the chain forecasts one step
// from the prefix, as the loop did at that origin, and is scored against
// the next observed window. The result maps "class<k>" to MAE in
// tasks/period — directly comparable with both Stats.ForecastMAE (the
// online one-step error) and the offline rolling-origin numbers from
// internal/forecast. Classes with insufficient history are omitted.
func (e *Engine) ForecastBacktest() map[string]float64 {
	e.mu.Lock()
	hist := make([][]float64, len(e.arrHist))
	for i, h := range e.arrHist {
		hist[i] = append([]float64(nil), h...)
	}
	e.mu.Unlock()

	out := make(map[string]float64)
	for i, h := range hist {
		if len(h) <= backtestMinTrain {
			continue
		}
		// One predictor for all origins, as the loop keeps one per class:
		// each origin extends the last, so carried fitting work is reused.
		pred := sched.NewPredictor(e.cfg.Forecaster, e.cfg.PeriodSeconds)
		predicted := make([]float64, len(h)-backtestMinTrain)
		var err error
		for k := 0; k < len(predicted) && err == nil; k++ {
			err = sched.ForecastChain(pred, h[:backtestMinTrain+k], predicted[k:k+1])
		}
		if err != nil {
			continue
		}
		m, err := forecast.Evaluate(h[backtestMinTrain:], predicted)
		if err != nil {
			continue
		}
		out[fmt.Sprintf("class%d", e.types[i].ID.Class)] = m.MAE
	}
	return out
}

// Replay is the batch reference for the streaming daemon: it drives a
// fresh engine over the prefix of a task stream covered by the given
// number of control periods — ingesting tasks in submit order and ticking
// at every period boundary, exactly as the HTTP path would — and returns
// the final plan. A trace streamed through POST /v1/tasks with a tick per
// boundary must produce a bit-identical plan.
func Replay(cfg Config, tasks []trace.Task, ticks int) (*Plan, error) {
	if ticks <= 0 {
		return nil, errors.New("daemon: replay needs at least one tick")
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	i := 0
	for k := 1; k <= ticks; k++ {
		boundary := float64(k) * e.cfg.PeriodSeconds
		for i < len(tasks) && tasks[i].Submit < boundary {
			if err := e.Ingest(tasks[i]); err != nil {
				return nil, err
			}
			i++
		}
		if _, err := e.Tick(context.Background()); err != nil {
			return nil, fmt.Errorf("daemon: replay tick %d: %w", k, err)
		}
	}
	return e.Plan()
}
