package sched

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// loopCharDoc is a two-class characterization in the persist format: a
// gratis class split short/long at 100 s and a production class with one
// short sub-class.
const loopCharDoc = `{
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

// loopFixture returns loopCharDoc and the two smallest Table II machine
// types at 1/100 scale.
func loopFixture(t testing.TB) (*classify.Characterization, []trace.MachineType, []energy.Model) {
	t.Helper()
	ch, err := classify.Load(strings.NewReader(loopCharDoc))
	if err != nil {
		t.Fatal(err)
	}
	machines, models := scaledTableII(100)
	return ch, machines[:2], models[:2]
}

// TestNewLoop pins what NewLoop derives: the characterization's task
// types, energy's switch costs over whatever the caller passed, and a
// labeler indexing the same types.
func TestNewLoop(t *testing.T) {
	ch, machines, models := loopFixture(t)
	h, labeler, err := NewLoop(ch, HarmonyConfig{
		Machines:      machines,
		Models:        models,
		PeriodSeconds: 300,
		SwitchCost:    []float64{7},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := h.Config()
	if !reflect.DeepEqual(cfg.Types, ch.TaskTypes()) {
		t.Errorf("types = %+v, want the characterization's", cfg.Types)
	}
	if want := energy.SwitchCosts(models, energy.DefaultSwitchCostDollars); !reflect.DeepEqual(cfg.SwitchCost, want) {
		t.Errorf("switch costs = %v, want %v", cfg.SwitchCost, want)
	}
	if cfg.Mode != core.CBS || cfg.Horizon != 2 || cfg.Price != energy.FlatPrice(energy.DefaultPricePerKWh) {
		t.Errorf("resolved mode %v, horizon %d, price %v", cfg.Mode, cfg.Horizon, cfg.Price)
	}
	prod := trace.Task{ID: 1, Duration: 60, CPU: 0.1, Mem: 0.1, Priority: 9}
	if idx, ok := labeler.InitialIndex(prod); !ok || cfg.Types[idx].Group != trace.Production {
		t.Errorf("production task labeled %d (%v)", idx, ok)
	}
	if _, _, err := NewLoop(nil, cfg); err == nil || !strings.Contains(err.Error(), "characterization") {
		t.Errorf("nil characterization: err = %v", err)
	}
}

// FuzzNewLoop holds the shared configuration to one promise: NewLoop
// either rejects a setting or builds a policy that decides. Over the
// two-class characterization and two machine types of loopFixture, every
// accepted mode, period, horizon (capped at 8), SLO, ε and ω must return
// a decision (TargetActive != nil) within three ticks of a steady
// arrival stream: a policy accepted only to fail every tick fails here.
// The stream is steady in tasks per second (0.02 gratis, 0.0067
// production), so its load does not grow as the period shrinks: a load
// past queueing's container cap fails a tick by design, and
// TestTickErrorKeepsLastPlan (internal/daemon) drives that path.
func FuzzNewLoop(f *testing.F) {
	ch, machines, models := loopFixture(f)
	f.Add(int(core.CBS), 300.0, 2, 0.0, 0.0, 0.0)
	f.Add(int(core.CBP), 60.0, 8, 30.0, 0.05, 1.5)
	f.Add(0, 3600.0, 0, 600.0, 0.5, 1.0)
	f.Add(int(core.CBS), 1e-6, 2, 0.0, 0.0, 0.0)
	f.Add(int(core.CBS), 86400.0, 2, 0.0, 0.0, 0.0)
	f.Add(int(core.CBS), 1e20, 2, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, mode int, period float64, horizon int, slo, eps, omega float64) {
		horizon = min(horizon, 8)
		h, labeler, err := NewLoop(ch, HarmonyConfig{
			Mode:          core.Mode(mode),
			Machines:      machines,
			Models:        models,
			PeriodSeconds: period,
			Horizon:       horizon,
			SLODelay:      slo,
			Epsilon:       eps,
			Omega:         omega,
		})
		if err != nil {
			return
		}
		types := len(h.Config().Types)
		// Six gratis and two production arrivals in a 300 s period, at
		// most a million of each in any period.
		arrivals := make([]int, types)
		for i, task := range []trace.Task{
			{CPU: 0.02, Mem: 0.02, Priority: 0}, {CPU: 0.1, Mem: 0.1, Priority: 9},
		} {
			idx, ok := labeler.InitialIndex(task)
			if !ok {
				t.Fatalf("fixture task %d has no class", i)
			}
			arrivals[idx] = int(math.Round(math.Min(float64(6-4*i)/300*period, 1e6)))
		}
		for tick := 1; tick <= 3; tick++ {
			obs := &sim.Observation{
				Time:     float64(tick) * period,
				Arrivals: arrivals,
				Queued:   make([]int, types),
				Running:  make([]int, types),
				Active:   make([]int, len(machines)),
			}
			if dir := h.Period(obs); dir.TargetActive != nil {
				return
			}
		}
		t.Fatalf("accepted mode %d period %v horizon %d SLO %v ε %v ω %v, but no decision in three ticks: %v",
			mode, period, horizon, slo, eps, omega, h.Err())
	})
}
