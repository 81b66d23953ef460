package sched

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/queueing"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// scaledTableII returns the Table II cluster divided by factor.
func scaledTableII(factor int) ([]trace.MachineType, []energy.Model) {
	models, machines := energy.TableIIScaled(factor)
	return machines, models
}

func testTypes() []classify.TaskType {
	return []classify.TaskType{
		{ID: classify.TypeID{Class: 0, Sub: 0}, Group: trace.Gratis,
			CPU: 0.01, Mem: 0.01, CPUStd: 0.004, MemStd: 0.004,
			MeanDuration: 60, SqCV: 1.2, Count: 100},
		{ID: classify.TypeID{Class: 1, Sub: 0}, Group: trace.Other,
			CPU: 0.05, Mem: 0.04, CPUStd: 0.02, MemStd: 0.02,
			MeanDuration: 120, SqCV: 1.5, Count: 80},
		{ID: classify.TypeID{Class: 2, Sub: 1}, Group: trace.Production,
			CPU: 0.2, Mem: 0.15, CPUStd: 0.05, MemStd: 0.05,
			MeanDuration: 7200, SqCV: 0.8, Count: 20},
	}
}

func testHarmonyConfig(mode core.Mode) HarmonyConfig {
	machines, models := scaledTableII(100)
	return HarmonyConfig{
		Mode:          mode,
		Machines:      machines,
		Models:        models,
		Types:         testTypes(),
		PeriodSeconds: 300,
		Horizon:       2,
	}
}

func TestNewHarmonyValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name   string
		mutate func(*HarmonyConfig)
		want   string // the error names this
	}{
		{"no machines", func(c *HarmonyConfig) { c.Machines = nil }, "machines"},
		{"model mismatch", func(c *HarmonyConfig) { c.Models = c.Models[:1] }, "models"},
		{"no types", func(c *HarmonyConfig) { c.Types = nil }, "types"},
		{"zero period", func(c *HarmonyConfig) { c.PeriodSeconds = 0 }, "period"},
		// harmonyd -period NaN used to listen and then fail every tick.
		{"NaN period", func(c *HarmonyConfig) { c.PeriodSeconds = nan }, "period"},
		{"+Inf period", func(c *HarmonyConfig) { c.PeriodSeconds = inf }, "period"},
		// Only 0 means "the default". NaN fails no x <= 0 test and used
		// to reach the container sizes.
		{"NaN epsilon", func(c *HarmonyConfig) { c.Epsilon = nan }, "Epsilon"},
		{"+Inf epsilon", func(c *HarmonyConfig) { c.Epsilon = inf }, "Epsilon"},
		{"-Inf epsilon", func(c *HarmonyConfig) { c.Epsilon = -inf }, "Epsilon"},
		{"negative epsilon", func(c *HarmonyConfig) { c.Epsilon = -0.1 }, "Epsilon"},
		{"epsilon 1", func(c *HarmonyConfig) { c.Epsilon = 1 }, "Epsilon"},
		{"NaN omega", func(c *HarmonyConfig) { c.Omega = nan }, "Omega"},
		{"+Inf omega", func(c *HarmonyConfig) { c.Omega = inf }, "Omega"},
		{"-Inf omega", func(c *HarmonyConfig) { c.Omega = -inf }, "Omega"},
		{"omega below 1", func(c *HarmonyConfig) { c.Omega = 0.9 }, "Omega"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testHarmonyConfig(core.CBS)
			tt.mutate(&cfg)
			if _, err := NewHarmony(cfg); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want one naming %q", err, tt.want)
			}
		})
	}
}

func TestNewHarmonyDefaults(t *testing.T) {
	h, err := NewHarmony(testHarmonyConfig(core.CBS))
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "harmony-CBS" {
		t.Errorf("name = %q", h.Name())
	}
	if h.cfg.SLODelay[trace.Production] != 120 {
		t.Errorf("production SLO default = %v", h.cfg.SLODelay[trace.Production])
	}
	if valuePerPeriod[trace.Gratis] != 0.01 {
		t.Errorf("gratis value = %v", valuePerPeriod[trace.Gratis])
	}
	// The sizing defaults every front door (facade, harmony-sim, harmonyd)
	// inherits: nobody else writes these numbers.
	zero := testHarmonyConfig(core.CBS)
	zero.Horizon = 0
	hz, err := NewHarmony(zero)
	if err != nil {
		t.Fatal(err)
	}
	if c := hz.cfg; c.Epsilon != 0.25 || c.Omega != 1.05 || c.Horizon != 2 {
		t.Errorf("defaults ε=%v ω=%v W=%d, want 0.25, 1.05, 2", c.Epsilon, c.Omega, c.Horizon)
	}
	sz := h.Sizing()
	if len(sz) != 3 {
		t.Fatalf("sizings = %d", len(sz))
	}
	for i, s := range sz {
		tt := h.cfg.Types[i]
		if s.CPU < tt.CPU || s.Mem < tt.Mem {
			t.Errorf("sizing %d below mean: %+v vs %v/%v", i, s, tt.CPU, tt.Mem)
		}
	}
}

func TestParsePredictor(t *testing.T) {
	for name, want := range map[string]PredictorKind{
		"": PredictARIMA, "arima": PredictARIMA,
		"auto-arima": PredictAutoARIMA, "auto": PredictAutoARIMA,
		"seasonal": PredictSeasonal, "ewma": PredictEWMA, "holtwinters": PredictHoltWinters,
	} {
		if got, err := ParsePredictor(name); err != nil || got != want {
			t.Errorf("ParsePredictor(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePredictor("crystal-ball"); err == nil {
		t.Error("unknown forecaster accepted")
	}
}

func TestHarmonyPeriodZeroArrivals(t *testing.T) {
	h, err := NewHarmony(testHarmonyConfig(core.CBS))
	if err != nil {
		t.Fatal(err)
	}
	obs := &sim.Observation{
		Arrivals: make([]int, 3),
		Queued:   make([]int, 3),
		Running:  make([]int, 3),
		Active:   make([]int, 4),
		Price:    0.08,
	}
	dir := h.Period(obs)
	if h.Err() != nil {
		t.Fatalf("policy error: %v", h.Err())
	}
	// Zero arrivals, zero backlog: no machines needed.
	for m, a := range dir.TargetActive {
		if a != 0 {
			t.Errorf("type %d active = %d with no demand", m, a)
		}
	}
}

func TestHarmonyPeriodProvisionsForLoad(t *testing.T) {
	for _, mode := range []core.Mode{core.CBS, core.CBP} {
		h, err := NewHarmony(testHarmonyConfig(mode))
		if err != nil {
			t.Fatal(err)
		}
		obs := &sim.Observation{
			Arrivals: []int{300, 120, 10}, // tasks in the last 300 s
			Queued:   []int{5, 2, 1},
			Running:  []int{20, 10, 4},
			Active:   make([]int, 4),
			Price:    0.08,
		}
		dir := h.Period(obs)
		if h.Err() != nil {
			t.Fatalf("%v: policy error: %v", mode, h.Err())
		}
		total := 0
		for _, a := range dir.TargetActive {
			total += a
		}
		if total == 0 {
			t.Errorf("%v: no machines provisioned under load", mode)
		}
		if dir.Quota == nil {
			t.Errorf("%v: no quotas emitted", mode)
		}
		if mode == core.CBS && dir.ReserveCPU == nil {
			t.Error("CBS: no container reservations")
		}
		if mode == core.CBP && dir.ReserveCPU != nil {
			t.Error("CBP: unexpected reservations")
		}
	}
}

func TestHarmonyContainerSeriesAccumulates(t *testing.T) {
	h, err := NewHarmony(testHarmonyConfig(core.CBP))
	if err != nil {
		t.Fatal(err)
	}
	obs := &sim.Observation{
		Arrivals: []int{100, 50, 5},
		Queued:   make([]int, 3),
		Running:  make([]int, 3),
		Active:   make([]int, 4),
		Price:    0.08,
	}
	h.Period(obs)
	obs2 := *obs
	obs2.Time = 300
	h.Period(&obs2)
	series := h.ContainerSeries()
	if len(series) != trace.NumGroups {
		t.Fatalf("series groups = %d", len(series))
	}
	gratis := series[trace.Gratis]
	if len(gratis.Points) < 2 {
		t.Fatalf("gratis points = %d", len(gratis.Points))
	}
	// With 100 arrivals/period of 60s tasks there must be containers.
	if gratis.Points[1].Y <= 0 {
		t.Errorf("no gratis containers recorded: %+v", gratis.Points)
	}
}

// End-to-end smoke test: the full pipeline drives a simulation without
// internal errors and schedules the bulk of the workload.
func TestHarmonyEndToEnd(t *testing.T) {
	machines, models := scaledTableII(100) // 70/15/10/5 machines
	genCfg := trace.DefaultConfig(9)
	genCfg.Horizon = 2 * trace.Hour
	genCfg.RatePerS = 0.3
	genCfg.Machines = machines
	tr, err := trace.Generate(genCfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := classify.Characterize(tr, classify.Config{Seed: 4, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	types := ch.TaskTypes()
	labeler := classify.NewLabeler(ch)

	for _, mode := range []core.Mode{core.CBS, core.CBP} {
		h, err := NewHarmony(HarmonyConfig{
			Mode:          mode,
			Machines:      machines,
			Models:        models,
			Types:         types,
			PeriodSeconds: 300,
			Horizon:       2,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Source:   trace.NewSliceSource(tr),
			Models:   models,
			Price:    energy.FlatPrice(0.08),
			Policy:   h,
			Period:   300,
			NumTypes: len(types),
			TypeOf: func(task trace.Task) int {
				idx, _ := labeler.InitialIndex(task)
				return idx
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if h.Err() != nil {
			t.Fatalf("%v: policy error: %v", mode, h.Err())
		}
		frac := float64(res.Scheduled) / float64(len(tr.Tasks))
		if frac < 0.85 {
			t.Errorf("%v: only %.1f%% of tasks scheduled", mode, frac*100)
		}
		if res.EnergyKWh <= 0 {
			t.Errorf("%v: no energy recorded", mode)
		}
	}
}

// Successive periods with near-identical loads must warm-start the M/G/c
// container solver from the previous period's answers: the second period
// spends strictly fewer MGcWait evaluations than the cold first period.
func TestHarmonyWarmStartsContainerSolver(t *testing.T) {
	h, err := NewHarmony(testHarmonyConfig(core.CBP))
	if err != nil {
		t.Fatal(err)
	}
	obs := func(i int) *sim.Observation {
		return &sim.Observation{
			Time:        float64(i) * 300,
			PeriodIndex: i,
			Arrivals:    []int{3000, 1200, 90},
			Queued:      make([]int, 3),
			Running:     make([]int, 3),
			Active:      make([]int, 4),
			Price:       0.08,
		}
	}
	before := queueing.WaitEvals()
	h.Period(obs(0))
	cold := queueing.WaitEvals() - before
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	before = queueing.WaitEvals()
	h.Period(obs(1))
	warm := queueing.WaitEvals() - before
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	if cold == 0 || warm == 0 {
		t.Fatalf("solver not exercised: cold=%d warm=%d evaluations", cold, warm)
	}
	if warm >= cold {
		t.Errorf("warm period spent %d MGcWait evaluations, cold period %d — hint not used", warm, cold)
	}
}

// TestHarmonyPeriodDeltaPlacement pins the delta-placement threading
// through the period tick: every decision the policy emits in steady
// state is bit-identical to a stateless full repack of its own plan, and
// after the first period the controller's delta path actually reuses
// unchanged machine types instead of repacking the fleet.
func TestHarmonyPeriodDeltaPlacement(t *testing.T) {
	h, obs := steadyHarmony(t, core.CBS, PredictEWMA)
	start := h.ctrl.DeltaStats()
	for period := 0; period < 4; period++ {
		if dir := h.Period(obs); dir.TargetActive == nil {
			t.Fatalf("period %d: %v", period, h.Err())
		}
		obs.Time += h.cfg.PeriodSeconds
		dec := h.LastDecision()
		cold, err := h.ctrl.Realize(dec.Plan)
		if err != nil {
			t.Fatalf("period %d cold repack: %v", period, err)
		}
		if !reflect.DeepEqual(cold, dec) {
			t.Fatalf("period %d: tick decision differs from full repack of its plan", period)
		}
	}
	stats := h.ctrl.DeltaStats()
	if stats.FullRepacks != start.FullRepacks {
		t.Errorf("steady-state ticks fell back to %d full repacks", stats.FullRepacks-start.FullRepacks)
	}
	if stats.ReusedTypes == start.ReusedTypes {
		t.Error("no machine type reused across four steady-state ticks")
	}
}
