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
// plans (tenant.Replay is that batch reference, and the end-to-end test
// asserts the equivalence). The HTTP front-end that serves an engine is
// tenant.Server; this package holds the engine and the shell that server
// is built from: the Router, the ingest Lane and the task decoder.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/metrics"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// Config parameterizes the online controller. NewEngine builds its
// control loop with sched.NewLoop, the constructor the offline facade
// uses too: Mode, Horizon, SLODelay and Forecaster pass through to
// sched.HarmonyConfig, which owns their defaults (a zero Mode is CBS, a
// zero Horizon 2, a zero SLODelay 120 s) as it does ε, ω and the flat
// electricity price; the switching costs are energy's.
type Config struct {
	Machines []trace.MachineType
	Models   []energy.Model
	Char     *classify.Characterization

	Mode          core.Mode // CBS or CBP
	PeriodSeconds float64   // control period in model time (0 means 300; at most a day)
	Horizon       int       // MPC look-ahead periods
	SLODelay      float64   // production target mean scheduling delay (s)
	Forecaster    sched.PredictorKind

	// Registry receives the daemon's metrics; a private registry is
	// created when nil.
	Registry *metrics.Registry
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

// Stats is the observability snapshot served at /v1/stats. Every counter
// and gauge in it is read back from the series the engine renders at
// /metrics, so the two endpoints cannot disagree.
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
	ForecastMAE     float64 `json:"forecastMAE"` // last window, tasks/period, over short types

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
// called from any goroutine. Counts live in the metric series (atomic);
// the rest of the state lives behind mu except the policy, which only the
// single in-flight tick touches (guarded by solving).
type Engine struct {
	loop    sched.HarmonyConfig // the policy's, every default resolved
	classes int                 // classes in the characterization
	reg     *metrics.Registry   // the daemon's series, Config.Registry
	labeler *classify.Labeler

	// solving serializes ticks without blocking ingest: the policy and
	// MPC state transition are owned by whichever tick holds the flag.
	solving atomic.Bool
	policy  *sched.Harmony

	mTasks       [trace.NumGroups]*metrics.Counter // by PriorityGroup.Index
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
	plan         *Plan // its per-type Active is the MPC state
	prevForecast []float64
	// fcErrSum[n] and fcErrN[n] accumulate |forecast − window| (tasks per
	// period) of short type n over every window the loop forecast: the
	// per-class score ForecastBacktest reports. Long sub-types receive no
	// direct arrivals and stay at zero.
	fcErrSum        []float64
	fcErrN          []int
	lastTickSeconds float64
	lastError       string
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
	if cfg.PeriodSeconds == 0 {
		cfg.PeriodSeconds = 300
	}
	policy, labeler, err := sched.NewLoop(cfg.Char, sched.HarmonyConfig{
		Mode:          cfg.Mode,
		Machines:      cfg.Machines,
		Models:        cfg.Models,
		PeriodSeconds: cfg.PeriodSeconds,
		Horizon:       cfg.Horizon,
		SLODelay:      cfg.SLODelay,
		Predictor:     cfg.Forecaster,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: build policy: %w", err)
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	loop := policy.Config()
	e := &Engine{
		loop:     loop,
		classes:  len(cfg.Char.Classes),
		reg:      cfg.Registry,
		labeler:  labeler,
		arrivals: make([]int, len(loop.Types)),
		fcErrSum: make([]float64, len(loop.Types)),
		fcErrN:   make([]int, len(loop.Types)),
		policy:   policy,
	}

	r := e.reg
	tasks := r.CounterVec("harmonyd_tasks_ingested_total", "Tasks ingested, by priority group.", "group")
	for _, g := range trace.Groups() {
		e.mTasks[g.Index()] = tasks.With(g.String())
	}
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

// PolicyConfig returns the configuration the control loop runs at, every
// default resolved (sched.Harmony.Config): its task types, its control
// period in model time, and the price and switching costs a cost model
// must bill.
func (e *Engine) PolicyConfig() sched.HarmonyConfig { return e.loop }

// Ingest records one arriving task: nearest-centroid classification
// (short sub-class first), arrival accounting for the current window, and
// membership in the open set for later relabeling. It rejects a task that
// fails trace.Task.Validate, which the HTTP front-end already applies at
// admission, for batch replays and library callers.
func (e *Engine) Ingest(t trace.Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	tt, labeled := e.labeler.InitialIndex(t)
	if !labeled {
		e.mFallbacks.Inc()
	}
	e.mTasks[t.Group().Index()].Inc()

	e.mu.Lock()
	e.arrivals[tt]++
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
		e.mTickSkips.Inc()
		return nil, ErrTickInFlight
	}

	e.mu.Lock()
	e.now += e.loop.PeriodSeconds
	e.periodIdx++
	now, idx := e.now, e.periodIdx
	obs, relabels := e.openLoopObservation(now)
	// Forecast accuracy: compare the previous tick's one-period-ahead
	// rate forecast with this window's observed arrivals (short types
	// carry every arrival under label-short-first).
	if e.prevForecast != nil {
		sum, n := 0.0, 0
		for i, r := range e.prevForecast {
			if e.loop.Types[i].ID.Sub != 0 {
				continue
			}
			d := math.Abs(r*e.loop.PeriodSeconds - float64(obs.Arrivals[i]))
			e.fcErrSum[i] += d
			e.fcErrN[i]++
			sum += d
			n++
		}
		if n > 0 {
			e.mForecastMAE.Set(sum / float64(n))
		}
	}
	openCount := len(e.open)
	e.mu.Unlock()
	e.mRelabels.Add(float64(relabels))
	e.mOpen.Set(float64(openCount))

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
		e.lastTickSeconds = elapsed
		e.mu.Unlock()
		if ctx.Err() != nil {
			e.mTickLate.Inc()
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

// openLoopObservation closes the arrival window and builds the policy's
// observation at model time now, returning it with the number of
// short-to-long relabels; e.mu must be held. harmonyd receives no report
// from the cluster it plans for, so the observation is open loop and
// duration-clairvoyant: every task is assumed to start the moment it
// arrives (nothing is ever Queued) and to run for exactly the Duration it
// declared at ingest (it leaves open then), and the cluster is assumed to
// power exactly the last plan (Active). Survivors are relabeled by their
// age, the paper's short-first policy: a short label is upgraded to long
// once the task outlives its sub-class boundary. A cluster report of
// queued, running and active counts is what would replace it.
func (e *Engine) openLoopObservation(now float64) (*sim.Observation, int) {
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
	running := make([]int, len(e.loop.Types))
	for _, ot := range e.open {
		running[ot.typ]++
	}
	arr := append([]int(nil), e.arrivals...)
	for i := range e.arrivals {
		e.arrivals[i] = 0
	}
	active := make([]int, len(e.loop.Machines))
	if e.plan != nil {
		for m, mp := range e.plan.Machines {
			active[m] = mp.Active
		}
	}
	return &sim.Observation{
		Time:     now,
		Arrivals: arr,
		Queued:   make([]int, len(e.loop.Types)),
		Running:  running,
		Active:   active,
	}, relabels
}

// solve runs the policy and publishes the resulting plan; it is only ever
// executed by the single tick goroutine holding the solving flag.
func (e *Engine) solve(obs *sim.Observation, idx int, now float64) (*Plan, error) {
	dir := e.policy.Period(obs)
	if dir.TargetActive == nil {
		err := e.policy.Err()
		e.mTicks.Inc()
		e.mTickErrs.Inc()
		e.mu.Lock()
		// The last forecast was made for the window before this one:
		// leave the next window unscored rather than score it against it.
		e.prevForecast = nil
		if err != nil {
			e.lastError = err.Error()
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
	e.plan = plan
	e.prevForecast = e.policy.LastForecast()
	e.mu.Unlock()

	e.mTicks.Inc()
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
		Mode:        e.loop.Mode.String(),
		Machines:    make([]MachinePlan, len(e.loop.Machines)),
	}
	for m, mt := range e.loop.Machines {
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

// Snapshot returns the daemon's statistics, reading its counters and
// gauges back from the series /metrics renders. The fields under mu are
// read first: a counter seen afterwards then orders none of them, which
// is what lets the race detector catch one written outside the lock.
func (e *Engine) Snapshot() Stats {
	e.mu.Lock()
	s := Stats{
		LastTickSeconds: e.lastTickSeconds,
		PeriodIndex:     e.periodIdx,
		ModelTime:       e.now,
		LastError:       e.lastError,
	}
	e.mu.Unlock()
	s.TasksByGroup = make(map[string]uint64, trace.NumGroups)
	for _, g := range trace.Groups() {
		if n := uint64(e.mTasks[g.Index()].Value()); n > 0 {
			s.TasksByGroup[g.String()] = n
			s.TasksIngested += n
		}
	}
	s.LabelFallbacks = uint64(e.mFallbacks.Value())
	s.Relabels = uint64(e.mRelabels.Value())
	s.OpenTasks = int(e.mOpen.Value())
	s.Ticks = uint64(e.mTicks.Value())
	s.TickErrors = uint64(e.mTickErrs.Value())
	s.TicksSkipped = uint64(e.mTickSkips.Value())
	s.TicksLate = uint64(e.mTickLate.Value())
	s.ForecastMAE = e.mForecastMAE.Value()
	s.DeltaReusedTypes = uint64(e.mDeltaReuse.Value())
	s.DeltaRepackedTypes = uint64(e.mDeltaRepack.Value())
	s.DeltaFullRepacks = uint64(e.mDeltaFull.Value())
	s.PeriodSeconds = e.loop.PeriodSeconds
	s.Classes = e.classes
	s.TaskTypes = len(e.loop.Types)
	s.TotalActive = int(e.mActive.Value())
	return s
}

// ForecastBacktest scores the forecasts the control loop acted on: for
// each class, the mean absolute error in tasks/period of every
// one-period-ahead arrival forecast the loop made (the EWMA bootstrap, the
// configured predictor with its carried fits, the EWMA fallback — whatever
// ran) against the window it was made for, from the class's first
// forecast on. A window after a failed tick is not scored. The result
// maps "class<k>" to that mean; Stats.ForecastMAE is the same error over
// the last window alone. Classes not yet scored are omitted.
func (e *Engine) ForecastBacktest() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]float64, e.classes)
	for i, n := range e.fcErrN {
		if n > 0 {
			out["class"+strconv.Itoa(e.loop.Types[i].ID.Class)] = e.fcErrSum[i] / float64(n)
		}
	}
	return out
}
