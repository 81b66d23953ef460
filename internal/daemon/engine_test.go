package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/classify"
	"harmony/internal/energy"
	"harmony/internal/metrics"
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
		want   string // the error names this
	}{
		{"no machines", func(c *Config) { c.Machines = nil }, "machines"},
		{"model mismatch", func(c *Config) { c.Models = c.Models[:1] }, "models"},
		{"nil characterization", func(c *Config) { c.Char = nil }, "characterization"},
		// Only 0 means a default: a negative period used to become 300,
		// a negative horizon 2, and an unknown mode failed every tick.
		{"negative period", func(c *Config) { c.PeriodSeconds = -300 }, "period"},
		{"negative horizon", func(c *Config) { c.Horizon = -1 }, "Horizon"},
		{"unknown mode", func(c *Config) { c.Mode = 7 }, "Mode"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testEngineConfig(t)
			tc.mutate(&cfg)
			if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestEngineDefaults(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if e.PolicyConfig().PeriodSeconds != 300 {
		t.Errorf("period = %v", e.PolicyConfig().PeriodSeconds)
	}
	if len(e.PolicyConfig().Types) != 3 { // gratis short+long, production short
		t.Errorf("task types = %d", len(e.PolicyConfig().Types))
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

// unstableChar is the test characterization with a long gratis
// sub-class no finite fleet can serve: a tick whose forecast carries any
// gratis arrivals fails its container sizing.
func unstableChar(t testing.TB) *classify.Characterization {
	t.Helper()
	doc := strings.Replace(testCharDoc, `"MeanDuration": 5000`, `"MeanDuration": 1e9`, 1)
	ch, err := classify.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestTickErrorKeepsLastPlan drives the tick's error path: the unstable
// characterization makes the second tick's container sizing fail. The
// error must come back from Tick (not hang it), be counted, leave the
// last good plan published, and release the in-flight flag. The window
// after the failed tick is not scored: the last forecast the loop kept
// was made for the window before it.
func TestTickErrorKeepsLastPlan(t *testing.T) {
	cfg := testEngineConfig(t)
	cfg.Char = unstableChar(t)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Tick(context.Background()); err != nil {
		t.Fatalf("tick 1: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Ingest(gratisTask(uint64(i), 300+float64(i), 60)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := e.Tick(ctx); err == nil || !strings.Contains(err.Error(), "system unstable") {
		t.Fatalf("tick 2 = %v, want the queueing instability error", err)
	}
	s := e.Snapshot()
	if s.TickErrors != 1 || !strings.Contains(s.LastError, "system unstable") {
		t.Errorf("after the failed tick: TickErrors %d, LastError %q", s.TickErrors, s.LastError)
	}
	if plan, err := e.Plan(); err != nil || plan.PeriodIndex != 1 {
		t.Errorf("Plan() after the failed tick = %+v, %v; want the tick-1 plan", plan, err)
	}
	// Tick 2 scored tick 1's forecast (no tasks) against its 200 arrivals.
	for i := 0; i < 50; i++ {
		if err := e.Ingest(gratisTask(uint64(1000+i), 600+float64(i), 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Tick(ctx); errors.Is(err, ErrTickInFlight) {
		t.Error("the failed tick left the in-flight flag set")
	}
	if mae := e.Snapshot().ForecastMAE; mae != s.ForecastMAE {
		t.Errorf("ForecastMAE after the window past the failed tick = %v, want it unscored (%v)", mae, s.ForecastMAE)
	}
	if got := e.ForecastBacktest()["class0"]; got != 200 {
		t.Errorf("class0 backtest = %v, want 200 from tick 2 alone", got)
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
	// -race it fails unless the late solve writes the plan and its tick
	// seconds under the lock. (Snapshot reads them before the atomic
	// counters, so a late-tick count it sees orders nothing it read.)
	late := make(chan uint64, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, _ = e.Plan()
			s := e.Snapshot()
			if s.TicksLate > 0 || time.Now().After(deadline) {
				late <- s.TicksLate
				return
			}
			time.Sleep(time.Millisecond)
		}
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
	period := e.PolicyConfig().PeriodSeconds
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

// TestForecastBacktestScoresTheLoopsForecasts drives a sawtooth through
// Ingest and Tick and requires the backtest to be the mean error of the
// forecasts the loop made — each tick's one-period-ahead rate, in tasks
// per period, against the window that followed — from the first one on.
func TestForecastBacktestScoresTheLoopsForecasts(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	period := e.PolicyConfig().PeriodSeconds
	id := uint64(0)
	var prev []float64 // the forecast the last tick made
	sum, n := 0.0, 0
	for k := 0; k < 60; k++ {
		count := 40 + 25*(k%2) + k%7
		for i := 0; i < count; i++ {
			if err := e.Ingest(gratisTask(id, float64(k)*period+float64(i), 60)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if _, err := e.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: %v", k+1, err)
		}
		if prev != nil {
			sum += math.Abs(prev[0]*period - float64(count))
			n++
		}
		prev = e.policy.LastForecast() // type 0 is class 0's short sub-type
	}
	want := sum / float64(n)
	if got, ok := e.ForecastBacktest()["class0"]; !ok || math.Abs(got-want) > 1e-9*want {
		t.Errorf("class0 backtest = %v (%v), want the loop's own %v over %d windows", got, ok, want, n)
	}
}

// TestForecastBacktestAllocs lids the cost of GET /v1/stats's backtest:
// reading the scores the loop kept takes the result map (its header and
// one group of slots) and one key per class, however long the loop has
// run.
func TestForecastBacktestAllocs(t *testing.T) {
	e, err := NewEngine(testEngineConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k++ {
		if err := e.Ingest(gratisTask(uint64(k), float64(k)*e.PolicyConfig().PeriodSeconds, 60)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Tick(context.Background()); err != nil {
			t.Fatalf("tick %d: %v", k+1, err)
		}
	}
	classes := len(e.ForecastBacktest())
	if classes != 2 {
		t.Fatalf("backtest scores %d classes, want 2", classes)
	}
	if allocs := testing.AllocsPerRun(20, func() { e.ForecastBacktest() }); allocs > float64(2+classes) {
		t.Errorf("ForecastBacktest allocates %v times, want at most %d", allocs, 2+classes)
	}
}

// TestStatsMatchRenderedSeries runs a label fallback, a relabel, a late
// tick, a skipped tick and a failed tick, then requires every counter and
// gauge in Stats to equal the series /metrics renders.
func TestStatsMatchRenderedSeries(t *testing.T) {
	cfg := testEngineConfig(t)
	cfg.Char = unstableChar(t)
	cfg.Registry = metrics.NewRegistry()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod := trace.Task{ID: 1, Submit: 10, Duration: 400, CPU: 0.1, Mem: 0.1, Priority: 10}
	if err := e.Ingest(prod); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // late: the solve finishes in the background
	if _, err := e.Tick(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("late tick: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Snapshot().TicksLate == 0 || e.solving.Load() {
		if time.Now().After(deadline) {
			t.Fatal("late tick never finished")
		}
		time.Sleep(time.Millisecond)
	}
	e.solving.Store(true)
	if _, err := e.Tick(context.Background()); !errors.Is(err, ErrTickInFlight) {
		t.Fatalf("skipped tick: %v", err)
	}
	e.solving.Store(false)
	// Priority 5 ("other") has no class: the task falls back to type 0,
	// gratis short, and outlives the short boundary, so the tick relabels
	// it. The gratis arrivals beside it fail the tick.
	other := trace.Task{ID: 2, Submit: 310, Duration: 500, CPU: 0.05, Mem: 0.05, Priority: 5}
	if err := e.Ingest(other); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Ingest(gratisTask(uint64(10+i), 320+float64(i), 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Tick(context.Background()); err == nil {
		t.Fatal("tick with a gratis arrival succeeded, want the instability error")
	}

	page := map[string]float64{}
	for _, line := range strings.Split(cfg.Registry.Render(), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			page[line[:i]] = v
		}
	}
	s := e.Snapshot()
	if s.LabelFallbacks != 1 || s.Relabels != 1 || s.TicksLate != 1 || s.TicksSkipped != 1 || s.TickErrors != 1 {
		t.Fatalf("the run did not exercise every counter: %+v", s)
	}
	var ingested float64
	for _, g := range trace.Groups() {
		series := page[fmt.Sprintf("harmonyd_tasks_ingested_total{group=%q}", g)]
		ingested += series
		if float64(s.TasksByGroup[g.String()]) != series {
			t.Errorf("TasksByGroup[%s] = %d, series %v", g, s.TasksByGroup[g.String()], series)
		}
	}
	for _, c := range []struct {
		field  string
		value  float64
		series string
	}{
		{"TasksIngested", float64(s.TasksIngested), ""},
		{"LabelFallbacks", float64(s.LabelFallbacks), "harmonyd_label_fallback_total"},
		{"Relabels", float64(s.Relabels), "harmonyd_relabels_total"},
		{"OpenTasks", float64(s.OpenTasks), "harmonyd_open_tasks"},
		{"Ticks", float64(s.Ticks), "harmonyd_ticks_total"},
		{"TickErrors", float64(s.TickErrors), "harmonyd_tick_errors_total"},
		{"TicksSkipped", float64(s.TicksSkipped), "harmonyd_ticks_skipped_total"},
		{"TicksLate", float64(s.TicksLate), "harmonyd_ticks_late_total"},
		{"ForecastMAE", s.ForecastMAE, "harmonyd_forecast_mae_tasks"},
		{"DeltaReusedTypes", float64(s.DeltaReusedTypes), "harmonyd_delta_reused_types"},
		{"DeltaRepackedTypes", float64(s.DeltaRepackedTypes), "harmonyd_delta_repacked_types"},
		{"DeltaFullRepacks", float64(s.DeltaFullRepacks), "harmonyd_delta_full_repacks"},
		{"TotalActive", float64(s.TotalActive), "harmonyd_machines_active"},
	} {
		series, ok := page[c.series]
		if c.series == "" {
			series, ok = ingested, true
		}
		if !ok || c.value != series {
			t.Errorf("Stats.%s = %v, series %s = %v (%v)", c.field, c.value, c.series, series, ok)
		}
	}
}
