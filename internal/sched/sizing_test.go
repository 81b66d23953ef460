package sched

import (
	"math"
	"testing"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

func TestCapacityCatalog(t *testing.T) {
	machines := []trace.MachineType{
		{CPU: 0.5, Mem: 0.25},
		{CPU: 1.0, Mem: 1.0},
		{CPU: 0.5, Mem: 0.5}, // duplicate CPU
	}
	caps := capacityCatalog(machines, func(m trace.MachineType) float64 { return m.CPU })
	if len(caps) != 2 || caps[0] != 1.0 || caps[1] != 0.5 {
		t.Errorf("cpu catalog = %v", caps)
	}
	mem := capacityCatalog(machines, func(m trace.MachineType) float64 { return m.Mem })
	if len(mem) != 3 || mem[0] != 1.0 || mem[2] != 0.25 {
		t.Errorf("mem catalog = %v", mem)
	}
}

func TestSnapToCatalog(t *testing.T) {
	caps := []float64{1.0, 0.5, 0.25}
	const omega = 1.0
	// Just above a boundary within tolerance: snaps down.
	if got := snapToCatalog(0.55, caps, omega, 1.4); got != 0.5 {
		t.Errorf("snap(0.55) = %v, want 0.5", got)
	}
	// Far above the boundary: stays.
	if got := snapToCatalog(0.9, caps, omega, 1.4); got != 0.9 {
		t.Errorf("snap(0.9) = %v, want 0.9", got)
	}
	// Below every boundary: stays.
	if got := snapToCatalog(0.2, caps, omega, 1.4); got != 0.2 {
		t.Errorf("snap(0.2) = %v, want 0.2", got)
	}
	// Omega inflates before comparing: 0.45*1.25 = 0.5625 -> snaps to
	// 0.5/1.25 = 0.4.
	if got := snapToCatalog(0.45, caps, 1.25, 1.4); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("snap(0.45, omega=1.25) = %v, want 0.4", got)
	}
}

func TestQuantileIndex(t *testing.T) {
	// QuantileProbs = {0.80, 0.90, 0.95, 0.99}.
	tests := []struct {
		target float64
		want   int
	}{
		{0.5, 0},
		{0.80, 0},
		{0.85, 1},
		{0.93, 2},
		{0.97, 3},
		{0.999, 3}, // beyond the highest stored: last index
	}
	for _, tt := range tests {
		if got := quantileIndex(tt.target); got != tt.want {
			t.Errorf("quantileIndex(%v) = %d, want %d", tt.target, got, tt.want)
		}
	}
}

// Quantile-based sizing caps the Gaussian blowup on skewed classes.
func TestSizingUsesQuantiles(t *testing.T) {
	machines, models := scaledTableII(100)
	types := []classify.TaskType{{
		ID: classify.TypeID{Class: 0, Sub: 0}, Group: trace.Gratis,
		CPU: 0.05, Mem: 0.05,
		CPUStd: 0.20, MemStd: 0.20, // huge sigma: Gaussian size explodes
		CPUQuantiles: [4]float64{0.06, 0.08, 0.10, 0.15},
		MemQuantiles: [4]float64{0.06, 0.08, 0.10, 0.15},
		MeanDuration: 60, SqCV: 1, Count: 100,
	}}
	h, err := NewHarmony(HarmonyConfig{
		Mode: core.CBP, Machines: machines, Models: models, Types: types,
		PeriodSeconds: 300, Horizon: 1, Epsilon: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := h.reserveCPU[0]
	// Gaussian would be ~0.05 + Z*0.2 >> 0.1; the q90 quantile caps it.
	if cpu > 0.101 {
		t.Errorf("cpu reservation %v not capped by quantile", cpu)
	}
	if cpu < 0.05 {
		t.Errorf("cpu reservation %v below class mean", cpu)
	}
}

// Pressure escalation: a type that keeps queueing without allocation gets
// its utility boosted until the controller allocates to it.
func TestPressureEscalation(t *testing.T) {
	machines, models := scaledTableII(100)
	h, err := NewHarmony(HarmonyConfig{
		Mode: core.CBP, Machines: machines, Models: models, Types: testTypes(),
		PeriodSeconds: 300, Horizon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &sim.Observation{
		Arrivals: []int{0, 0, 0},
		Queued:   []int{50, 0, 0},
		Running:  make([]int, 3),
		Active:   make([]int, 4),
	}
	h.Period(obs)
	if h.Err() != nil {
		t.Fatal(h.Err())
	}
	// With queued demand the type should be allocated, so pressure must
	// stay zero...
	if h.pressure[0] != 0 {
		// ...but if the cluster genuinely cannot host it, pressure
		// grows; either way pressure must be non-negative and bounded.
		if h.pressure[0] < 0 || h.pressure[0] > maxPressure {
			t.Errorf("pressure out of range: %v", h.pressure[0])
		}
	}
	// Force the starvation path: an impossible queue with zero machines
	// available cannot be allocated, so pressure must grow and cap.
	empty := &sim.Observation{
		Arrivals: []int{0, 0, 0},
		Queued:   []int{50, 0, 0},
		Running:  make([]int, 3),
		Active:   make([]int, 4),
	}
	h2, err := NewHarmony(HarmonyConfig{
		Mode: core.CBP, Machines: machines, Models: models, Types: testTypes(),
		PeriodSeconds: 300, Horizon: 1,
		// Absurd energy price: the LP prefers not to power anything.
		Price: priceFn(1e12),
	})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 12; i++ {
		h2.Period(empty)
		if h2.Err() != nil {
			t.Fatal(h2.Err())
		}
		if h2.pressure[0] < last {
			t.Fatalf("pressure decreased while starving: %v -> %v", last, h2.pressure[0])
		}
		last = h2.pressure[0]
	}
	if last == 0 {
		t.Error("pressure never grew under starvation")
	}
	if last > maxPressure {
		t.Errorf("pressure %v exceeds cap", last)
	}
}

type priceFn float64

func (p priceFn) At(float64) float64 { return float64(p) }
