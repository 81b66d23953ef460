package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"harmony/internal/classify"
	"harmony/internal/energy"
	"harmony/internal/forecast"
	"harmony/internal/metrics"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

// testCharDoc is a deterministic two-class characterization in the
// persist format: a gratis class with a short/long split (relabel
// boundary at 100 s) and a production class with a single short
// sub-class. Gratis centroid at (0.02, 0.02), production at (0.1, 0.1).
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

// testCluster returns the Table II cluster scaled down by factor.
func testCluster(factor int) ([]trace.MachineType, []energy.Model) {
	models, machines := energy.TableIIScaled(factor)
	return machines, models
}

func testEngineConfig(t testing.TB) Config {
	machines, models := testCluster(100)
	return Config{Machines: machines, Models: models, Char: testChar(t)}
}

// gratisTask builds a task that labels into class 0 (short sub first).
func gratisTask(id uint64, submit, duration float64) trace.Task {
	return trace.Task{ID: id, Submit: submit, Duration: duration,
		CPU: 0.02, Mem: 0.02, Priority: 0}
}

func TestNewEngineValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no machines", func(c *Config) { c.Machines = nil }},
		{"model mismatch", func(c *Config) { c.Models = c.Models[:1] }},
		{"nil characterization", func(c *Config) { c.Char = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testEngineConfig(t)
			tc.mutate(&cfg)
			if _, err := NewEngine(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestEngineDefaults(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.PeriodSeconds() != 300 {
		t.Errorf("period = %v", e.PeriodSeconds())
	}
	if e.NumTaskTypes() != 3 { // gratis short+long, production short
		t.Errorf("task types = %d", e.NumTaskTypes())
	}
	if _, err := e.Plan(); !errors.Is(err, ErrNoPlan) {
		t.Errorf("plan before first tick: %v", err)
	}
}

func TestIngestValidation(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []trace.Task{
		{ID: 1, Duration: 0, CPU: 0.1, Mem: 0.1},
		{ID: 2, Duration: 60, CPU: 0, Mem: 0.1},
		{ID: 3, Duration: 60, CPU: 0.1, Mem: 1.5},
		{ID: 4, Duration: 60, CPU: 0.1, Mem: 0.1, Priority: 99},
		{ID: 5, Duration: 60, CPU: 0.1, Mem: 0.1, Submit: -1},
		// NaN compares false against everything: the !(x > 0) guards must
		// reject these rather than let them poison the arrival windows.
		{ID: 6, Duration: nan, CPU: 0.1, Mem: 0.1},
		{ID: 7, Duration: 60, CPU: nan, Mem: 0.1},
		{ID: 8, Duration: 60, CPU: 0.1, Mem: nan},
		{ID: 9, Duration: 60, CPU: 0.1, Mem: 0.1, Submit: nan},
		{ID: 10, Duration: inf, CPU: 0.1, Mem: 0.1},
		{ID: 11, Duration: 60, CPU: 0.1, Mem: 0.1, Submit: inf},
		{ID: 12, Duration: -60, CPU: 0.1, Mem: 0.1},
		{ID: 13, Duration: 60, CPU: 0.1, Mem: 0.1, SchedClass: -1},
		{ID: 14, Duration: 60, CPU: 0.1, Mem: 0.1, SchedClass: 4},
	}
	for _, task := range bad {
		if err := e.Ingest(task); err == nil {
			t.Errorf("task %d accepted: %+v", task.ID, task)
		}
	}
	if got := e.Snapshot().TasksIngested; got != 0 {
		t.Errorf("invalid tasks counted: %d", got)
	}
}

// TestDeltaStatsExposed pins the satellite contract: the controller's
// delta-placement counters surface through Snapshot and the registry.
func TestDeltaStatsExposed(t *testing.T) {
	cfg := testEngineConfig(t)
	cfg.Registry = metrics.NewRegistry()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.DeltaFullRepacks != 0 || s.DeltaReusedTypes != 0 {
		t.Errorf("pre-tick delta stats = %+v", s)
	}
	for i := 0; i < 20; i++ {
		if err := e.Ingest(gratisTask(uint64(i), float64(i*10), 60)); err != nil {
			t.Fatal(err)
		}
	}
	// The first CBS realization has no previous decision to reuse, so it
	// always books one full repack.
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.DeltaFullRepacks < 1 {
		t.Errorf("first tick booked no full repack: %+v", s)
	}
	// A second identical window reuses or repacks types — either way the
	// reuse+repack counters must move once prev exists.
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := e.Snapshot()
	if s2.DeltaReusedTypes+s2.DeltaRepackedTypes+s2.DeltaFullRepacks <= s.DeltaReusedTypes+s.DeltaRepackedTypes+s.DeltaFullRepacks {
		t.Errorf("delta counters did not advance: %+v -> %+v", s, s2)
	}
	rendered := cfg.Registry.Render()
	for _, want := range []string{
		"harmonyd_delta_full_repacks",
		"harmonyd_delta_reused_types",
		"harmonyd_delta_repacked_types",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestIngestCountsAndFallback(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(gratisTask(1, 10, 60)); err != nil {
		t.Fatal(err)
	}
	// Priority 5 is the "other" group, which has no classes in the test
	// characterization: the task must fall back to type 0 and be counted.
	other := trace.Task{ID: 2, Submit: 20, Duration: 60, CPU: 0.05, Mem: 0.05, Priority: 5}
	if err := e.Ingest(other); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.TasksIngested != 2 {
		t.Errorf("ingested = %d", s.TasksIngested)
	}
	if s.LabelFallbacks != 1 {
		t.Errorf("fallbacks = %d", s.LabelFallbacks)
	}
	if s.TasksByGroup["gratis"] != 1 || s.TasksByGroup["other"] != 1 {
		t.Errorf("by group = %v", s.TasksByGroup)
	}
}

func TestTickProducesPlan(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Ingest(gratisTask(uint64(i), float64(i*6), 60)); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := e.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plan.PeriodIndex != 1 || plan.ModelTime != 300 {
		t.Errorf("plan at period %d time %v", plan.PeriodIndex, plan.ModelTime)
	}
	if plan.Mode != "CBS" {
		t.Errorf("mode = %q", plan.Mode)
	}
	total := 0
	for _, mp := range plan.Machines {
		if mp.Active < 0 || mp.Active > mp.Available {
			t.Errorf("type %d active %d of %d", mp.Type, mp.Active, mp.Available)
		}
		total += mp.Active
	}
	if total != plan.TotalActive {
		t.Errorf("TotalActive %d != sum %d", plan.TotalActive, total)
	}
	if plan.TotalActive == 0 {
		t.Error("no machines provisioned for 50 arrivals")
	}
	got, err := e.Plan()
	if err != nil || got.PeriodIndex != plan.PeriodIndex {
		t.Errorf("Plan() = %+v, %v", got, err)
	}
	s := e.Snapshot()
	if s.Ticks != 1 || s.PeriodIndex != 1 || s.ModelTime != 300 {
		t.Errorf("stats after tick: %+v", s)
	}
}

// TestBackToBackTicksNeverSkipped ticks again the moment each tick
// returns — what the run loop's shutdown tick does after a ticker tick —
// and requires that a completed tick has released the in-flight flag.
func TestBackToBackTicksNeverSkipped(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 300; k++ {
		if _, err := e.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
}

func TestTickInFlightSkipped(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	e.solving.Store(true)
	if _, err := e.Tick(context.Background()); !errors.Is(err, ErrTickInFlight) {
		t.Fatalf("want ErrTickInFlight, got %v", err)
	}
	e.solving.Store(false)
	if got := e.Snapshot().TicksSkipped; got != 1 {
		t.Errorf("skipped = %d", got)
	}
	// Once released, ticking works again.
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatalf("tick after release: %v", err)
	}
}

func TestRelabelShortToLongAcrossTicks(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// Duration 500 outlives the gratis short boundary (100 s): after the
	// first tick (model time 300) its age is 300 and it must be
	// relabeled long; after the second (600) it has finished.
	if err := e.Ingest(gratisTask(1, 0, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.Relabels != 1 {
		t.Errorf("relabels after tick 1 = %d", s.Relabels)
	}
	if s.OpenTasks != 1 {
		t.Errorf("open after tick 1 = %d", s.OpenTasks)
	}
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	s = e.Snapshot()
	if s.OpenTasks != 0 {
		t.Errorf("open after tick 2 = %d", s.OpenTasks)
	}
	if s.Relabels != 1 {
		t.Errorf("relabels after tick 2 = %d", s.Relabels)
	}
}

func TestTickDeadlinePublishesLate(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Ingest(gratisTask(uint64(i), float64(i), 60)); err != nil {
			t.Fatal(err)
		}
	}
	// A reader that meets the solve goroutine only through e.mu: under
	// -race it fails unless the late-tick counter is bumped under the lock.
	late := make(chan uint64, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		s := e.Snapshot()
		for s.TicksLate == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			s = e.Snapshot()
		}
		late <- s.TicksLate
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the solve must finish in the background
	_, err = e.Tick(ctx)
	// The solve may beat the cancelled-context branch; both are valid.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("tick error: %v", err)
	}
	if n := <-late; n != 1 {
		t.Fatalf("TicksLate = %d, want 1", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, perr := e.Plan(); perr == nil && !e.solving.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late solve never published a plan")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if plan, perr := e.Plan(); perr != nil || plan.PeriodIndex != 1 {
		t.Fatalf("published plan: %+v, %v", plan, perr)
	}
}

func TestReplayMatchesManualDrive(t *testing.T) {
	cfg := testEngineConfig(t)
	var tasks []trace.Task
	for i := 0; i < 120; i++ {
		tasks = append(tasks, gratisTask(uint64(i), float64(i*7), 90))
	}
	const ticks = 3

	replayPlan, err := Replay(cfg, tasks, ticks)
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for k := 1; k <= ticks; k++ {
		for i < len(tasks) && tasks[i].Submit < float64(k)*300 {
			if err := e.Ingest(tasks[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if _, err := e.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	manualPlan, err := e.Plan()
	if err != nil {
		t.Fatal(err)
	}

	a, _ := json.Marshal(replayPlan)
	b, _ := json.Marshal(manualPlan)
	if string(a) != string(b) {
		t.Errorf("replay and manual plans differ:\n%s\n%s", a, b)
	}
}

// TestForecastMAESettlesOnConstantArrivals: with the same number of
// arrivals every period, the one-period-ahead forecast settles on that
// count, so Stats.ForecastMAE, in tasks/period, reads zero. This pins the
// unit of the comparison: the forecast is a rate in tasks/s and must be
// scaled by the period before it is set against a window's count.
func TestForecastMAESettlesOnConstantArrivals(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	const perPeriod, ticks = 12, 40
	period := e.PeriodSeconds()
	id := uint64(0)
	for k := 0; k < ticks; k++ {
		for i := 0; i < perPeriod; i++ {
			submit := float64(k)*period + float64(i)*period/perPeriod
			if err := e.Ingest(gratisTask(id, submit, 60)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if _, err := e.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: %v", k+1, err)
		}
	}
	if mae := e.Snapshot().ForecastMAE; !(mae < 1e-6) {
		t.Errorf("ForecastMAE = %v tasks/period on %d arrivals every period, want 0", mae, perPeriod)
	}
}

// TestForecastBacktestScoresTheLoopsChain: the backtest reports the
// error of what the control loop forecast at each origin — the EWMA
// bootstrap while the history is short, the configured ARIMA once it is
// not — and not the EWMA fallback's. (ARIMA(2,0,1) cannot fit the
// 8-sample training prefix, and while a failed fit at the first origin
// aborted the whole backtest, every class was scored with EWMA alone.)
func TestForecastBacktestScoresTheLoopsChain(t *testing.T) {
	eng, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// A sawtooth: ARIMA picks up the alternation, EWMA lags it.
	series := make([]float64, 100)
	for i := range series {
		series[i] = 40 + 25*float64(i%2) + float64(i%7)
	}
	eng.arrHist[0] = series

	score := func(forecast1 func(prefix []float64) float64) float64 {
		sum := 0.0
		for i := backtestMinTrain; i < len(series); i++ {
			sum += math.Abs(forecast1(series[:i]) - series[i])
		}
		return sum / float64(len(series)-backtestMinTrain)
	}
	chain := score(func(prefix []float64) float64 {
		// A predictor that has seen nothing, at every origin.
		var dst [1]float64
		if err := sched.ForecastChain(sched.NewPredictor(sched.PredictARIMA, eng.PeriodSeconds()), prefix, dst[:]); err != nil {
			t.Fatal(err)
		}
		return dst[0]
	})
	ewma := score(func(prefix []float64) float64 {
		e := &forecast.EWMA{Alpha: 0.4}
		if err := e.Fit(prefix); err != nil {
			t.Fatal(err)
		}
		f, err := e.Forecast(1)
		if err != nil {
			t.Fatal(err)
		}
		return f[0]
	})
	if chain >= 0.8*ewma {
		t.Fatalf("chain MAE %v vs EWMA %v: the series does not tell the two apart", chain, ewma)
	}
	got := eng.ForecastBacktest()
	key := fmt.Sprintf("class%d", eng.types[0].ID.Class)
	if mae, ok := got[key]; !ok || math.Abs(mae-chain) > 1e-12*chain {
		t.Errorf("backtest %s = %v (%v), want the chain's %v (EWMA alone scores %v)", key, mae, ok, chain, ewma)
	}
}
