package sched

import (
	"math"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// steadyHarmony builds a Harmony policy and drives it until every
// warm-start path (LP basis, M/G/c hints, scratch buffers) is in its
// steady state, the way a long simulation or daemon run sees it: a few
// periods for the EWMA bootstrap, past minHistory for a fitted model, so
// the tick under test refits the configured predictor. Arrivals wobble
// during the warm-up so a fitted model sees a non-degenerate history.
func steadyHarmony(t testing.TB, mode core.Mode, kind PredictorKind) (*Harmony, *sim.Observation) {
	t.Helper()
	cfg := testHarmonyConfig(mode)
	cfg.Predictor = kind
	h, err := NewHarmony(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &sim.Observation{
		Queued:  []int{3, 1, 0},
		Running: []int{15, 8, 4},
		Active:  []int{2, 1, 1, 0},
	}
	warmup := 6
	if kind != PredictEWMA {
		warmup += minHistory
	}
	for i := 0; i < warmup; i++ {
		obs.Arrivals = []int{240 + (i*37)%23, 90 + (i*11)%7, 12 + i%3}
		if dir := h.Period(obs); dir.TargetActive == nil {
			t.Fatalf("warm-up period %d: %v", i, h.Err())
		}
		obs.Time += cfg.PeriodSeconds
	}
	obs.Arrivals = []int{240, 90, 12}
	return h, obs
}

// TestPeriodScratchReuse pins the steady-state allocation contract of the
// tick path: the demand matrix, quota matrix, and reservation slices are
// allocated once and reused, containerDemand itself stays within a small
// per-type allocation budget (the residue is the predictor's fit and
// forecast, not tick-path bookkeeping) — for the EWMA bootstrap and for
// the ARIMA refit past minHistory alike — a whole warm Period stays
// within a budget that has no room for rebuilding the CBS-RELAX program,
// and the Period's own glue allocates nothing: a warm Period allocates
// exactly what its containerDemand and its controller Step allocate on
// the same state.
func TestPeriodScratchReuse(t *testing.T) {
	// What remains per type is the fit's fixed handful of buffers (the
	// predictor and its stage-one sums are kept per class: 29 objects per
	// type before, at most 24 since) and its forecast slice, plus M/G/c solver
	// internals. The lids fail loudly if per-period matrix churn, or a
	// design matrix per fit, returns.
	//
	// A whole Period of this 3-type, 4-machine-type instance (44 LP rows)
	// allocated 462 (EWMA) and 540 (ARIMA) objects while every tick built
	// one dense row per constraint and re-sparsified them; with the
	// program kept across periods it is 102 and 159 — the solver's
	// per-solve scratch, the basis copy and capture, the etas, the
	// decision. The lids sit between, so a per-tick rebuild cannot hide;
	// the glue difference below catches a single added object.
	for _, tc := range []struct {
		name             string
		kind             PredictorKind
		perType, perTick int
	}{
		{"EWMA", PredictEWMA, 8, 130},
		{"ARIMA", PredictARIMA, 30, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, obs := steadyHarmony(t, core.CBS, tc.kind)
			dirA := h.Period(obs)
			demandA := h.lastDemand
			obs.Time += h.cfg.PeriodSeconds
			dirB := h.Period(obs)
			demandB := h.lastDemand

			if &demandA[0][0] != &demandB[0][0] {
				t.Error("demand matrix reallocated between periods")
			}
			if &dirA.Quota[0][0] != &dirB.Quota[0][0] {
				t.Error("quota matrix reallocated between periods")
			}
			if &dirA.ReserveCPU[0] != &dirB.ReserveCPU[0] || &dirA.ReserveMem[0] != &dirB.ReserveMem[0] {
				t.Error("reservation slices rebuilt between periods")
			}

			keep := len(h.history[0])
			period := testing.AllocsPerRun(50, func() {
				if dir := h.Period(obs); dir.TargetActive == nil {
					t.Fatal(h.Err())
				}
				// Drop the sample the tick appended: the history's own
				// amortized growth is not what this measures.
				for n := range h.history {
					h.history[n] = h.history[n][:keep]
				}
			})
			if lid := float64(tc.perTick); period > lid {
				t.Errorf("a warm Period allocates %.0f objects, budget %.0f", period, lid)
			} else {
				t.Logf("warm Period: %.0f allocs (budget %.0f)", period, lid)
			}

			// The callees, on the state the measured Periods ran them on:
			// the history with this period's sample appended, and the
			// inputs the Period handed its Step.
			if dir := h.Period(obs); dir.TargetActive == nil {
				t.Fatal(h.Err())
			}
			demand := testing.AllocsPerRun(50, func() {
				if _, err := h.containerDemand(obs); err != nil {
					t.Fatal(err)
				}
			})
			if lid := float64(tc.perType * len(h.cfg.Types)); demand > lid {
				t.Errorf("containerDemand allocates %.0f objects per call, budget %.0f", demand, lid)
			} else {
				t.Logf("containerDemand: %.0f allocs per call (budget %.0f)", demand, lid)
			}
			step := testing.AllocsPerRun(50, func() {
				if _, err := h.ctrl.Step(h.initialBuf, h.lastDemand, h.priceBuf); err != nil {
					t.Fatal(err)
				}
			})
			if glue := period - demand - step; glue != 0 {
				t.Errorf("a warm Period allocates %.0f objects beyond its containerDemand (%.0f) and Step (%.0f), want 0", glue, demand, step)
			}
		})
	}
}

// twoSubTypeConfig is testHarmonyConfig with class 1 split into a short
// and a long sub-type: four task types over three classes.
func twoSubTypeConfig() HarmonyConfig {
	cfg := testHarmonyConfig(core.CBS)
	cfg.Types = append(cfg.Types, classify.TaskType{
		ID: classify.TypeID{Class: 1, Sub: 1}, Group: trace.Other,
		CPU: 0.05, Mem: 0.04, CPUStd: 0.02, MemStd: 0.02,
		MeanDuration: 3600, SqCV: 1.1, Count: 20,
	})
	return cfg
}

// TestOneForecastPerClass pins the tick's forecasting cost: both
// sub-types of a class read one forecast of the class's history (recorded
// on its short sub-type), so a period fits one model per distinct class —
// before and after minHistory — not one per task type.
func TestOneForecastPerClass(t *testing.T) {
	cfg := twoSubTypeConfig()
	h, err := NewHarmony(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs := &sim.Observation{
		Queued:  make([]int, 4),
		Running: make([]int, 4),
		Active:  make([]int, 4),
	}
	const classes = 3
	for i := 0; i < minHistory+3; i++ {
		obs.Arrivals = []int{240 + (i*37)%23, 90 + (i*11)%7, 12 + i%3, 0}
		before := h.forecasts
		if dir := h.Period(obs); dir.TargetActive == nil {
			t.Fatalf("period %d: %v", i, h.Err())
		}
		if got := h.forecasts - before; got != classes {
			t.Fatalf("period %d: %d forecasts for %d types in %d classes", i, got, len(cfg.Types), classes)
		}
		obs.Time += cfg.PeriodSeconds
	}
	// The long sub-type is sized from its class's rate, not from its own
	// (always empty) arrival history.
	if rates := h.LastForecast(); rates[1] <= 0 || rates[3] != 0 {
		t.Errorf("class 1 forecast recorded as %v on the short and %v on the long sub-type", rates[1], rates[3])
	}
	if d := h.lastDemand; d[3][0] <= 0 {
		t.Errorf("long sub-type demand %v: it did not read its class's forecast", d[3])
	}
}

// TestForecastRatesZeroesUnsizable: a forecast no queue can be sized for
// — negative, NaN or +Inf — becomes a zero rate instead of reaching the
// M/G/c solver.
func TestForecastRatesZeroesUnsizable(t *testing.T) {
	h, err := NewHarmony(testHarmonyConfig(core.CBS))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		h.history[0] = []float64{bad, bad, bad}
		dst := []float64{1, 1}
		if err := h.forecastRates(0, dst); err != nil {
			t.Fatalf("history of %v: %v", bad, err)
		}
		if dst[0] != 0 || dst[1] != 0 {
			t.Errorf("history of %v forecasts %v, want zeros", bad, dst)
		}
	}
}

// BenchmarkHarmonyPeriod measures one full control-period tick — record
// arrivals, forecast, size demand via M/G/c, warm-started CBS-RELAX
// solve, and placement — in its steady state, under the EWMA bootstrap
// and under the default ARIMA refit the long-running loop pays.
func BenchmarkHarmonyPeriod(b *testing.B) {
	for _, bc := range []struct {
		name string
		kind PredictorKind
	}{{"EWMA", PredictEWMA}, {"ARIMA", PredictARIMA}} {
		b.Run(bc.name, func(b *testing.B) {
			h, obs := steadyHarmony(b, core.CBS, bc.kind)
			keep := len(h.history[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dir := h.Period(obs); dir.TargetActive == nil {
					b.Fatal(h.Err())
				}
				// Truncate the arrival history the loop just appended so every
				// iteration forecasts over the same window instead of an
				// ever-growing one.
				for n := range h.history {
					h.history[n] = h.history[n][:keep]
				}
			}
		})
	}
}
