// Package energy implements the machine energy model of the paper's
// evaluation (Table II and Eq. 7): four server models with heterogeneous
// capacities and linear power curves P = E_idle + Σ_r α_r·u_r, plus the
// time-varying electricity price p_t that the CBS objective charges
// against.
//
// The paper estimated E_idle and α from Energy Star measurement data [2];
// the wattages here are representative figures for the same server models
// taken from public spec sheets — the substitution documented in DESIGN.md.
package energy

import (
	"fmt"
	"math"

	"harmony/internal/trace"
)

// Model is one server hardware model (a row of Table II).
type Model struct {
	Name       string
	Processors int
	Cores      int
	MemGB      int
	Count      int // machines of this model in the simulated cluster

	CPUCap float64 // normalized CPU capacity (largest machine = 1)
	MemCap float64 // normalized memory capacity

	// E_idle,m: draw when on but idle (watts)
	IdleWatts float64
	// α for CPU utilization (watts at u=1)
	AlphaCPU float64
	// α for memory utilization (watts at u=1)
	AlphaMem float64
}

// Power returns the electrical draw in watts at the given utilizations
// (each in [0,1], clamped). This is Eq. 7's per-machine term.
func (m Model) Power(cpuUtil, memUtil float64) float64 {
	return m.IdleWatts + m.AlphaCPU*clamp01(cpuUtil) + m.AlphaMem*clamp01(memUtil)
}

// PeakWatts returns the draw at full utilization.
func (m Model) PeakWatts() float64 { return m.Power(1, 1) }

// EfficiencyAtPeak returns normalized capacity delivered per watt at full
// load — the metric the heterogeneity-oblivious baseline greedily sorts by.
func (m Model) EfficiencyAtPeak() float64 {
	p := m.PeakWatts()
	if p <= 0 {
		return 0
	}
	return (m.CPUCap + m.MemCap) / 2 / p
}

// MachineType converts the model to the trace package's machine type,
// preserving the Table II population count.
func (m Model) MachineType(id int) trace.MachineType {
	return trace.MachineType{
		ID:       id,
		Platform: m.Name,
		CPU:      m.CPUCap,
		Mem:      m.MemCap,
		Count:    m.Count,
	}
}

// TableII returns the simulated cluster of the paper's evaluation
// (Section IX, Table II): 10 000 machines over four models, normalized so
// the HP DL585 G7 (48 cores, 64 GB) has capacity 1.0/1.0.
func TableII() []Model {
	return []Model{
		{
			Name: "Dell PowerEdge R210", Processors: 1, Cores: 4, MemGB: 4,
			Count:  7000,
			CPUCap: 4.0 / 48, MemCap: 4.0 / 64,
			IdleWatts: 60, AlphaCPU: 45, AlphaMem: 15,
		},
		{
			Name: "Dell PowerEdge R515", Processors: 2, Cores: 6, MemGB: 32,
			Count:  1500,
			CPUCap: 12.0 / 48, MemCap: 32.0 / 64,
			IdleWatts: 120, AlphaCPU: 115, AlphaMem: 45,
		},
		{
			Name: "HP DL385 G7", Processors: 2, Cores: 12, MemGB: 16,
			Count:  1000,
			CPUCap: 24.0 / 48, MemCap: 16.0 / 64,
			IdleWatts: 140, AlphaCPU: 130, AlphaMem: 50,
		},
		{
			Name: "HP DL585 G7", Processors: 4, Cores: 12, MemGB: 64,
			Count:  500,
			CPUCap: 1, MemCap: 1,
			IdleWatts: 260, AlphaCPU: 260, AlphaMem: 110,
		},
	}
}

// TableIIScaled returns the Table II cluster with every machine count
// divided by scale (at least one machine per model; scale <= 1 keeps the
// full population), as energy models and as trace machine types with IDs
// 1..4.
func TableIIScaled(scale int) ([]Model, []trace.MachineType) {
	models := TableII()
	machines := make([]trace.MachineType, len(models))
	for i := range models {
		if scale > 1 {
			models[i].Count = max(models[i].Count/scale, 1)
		}
		machines[i] = models[i].MachineType(i + 1)
	}
	return models, machines
}

// SyntheticModel derives a plausible power model for an arbitrary machine
// type: idle and dynamic draw scale with normalized capacity, with a fixed
// platform overhead. It fills in energy curves for the ten Google-like
// machine types whose hardware specs the trace does not disclose.
func SyntheticModel(mt trace.MachineType) Model {
	avg := (mt.CPU + mt.Mem) / 2
	return Model{
		Name:      fmt.Sprintf("synthetic-%s-%d", mt.Platform, mt.ID),
		Count:     mt.Count,
		CPUCap:    mt.CPU,
		MemCap:    mt.Mem,
		IdleWatts: 45 + 215*avg,
		AlphaCPU:  30 + 230*mt.CPU,
		AlphaMem:  10 + 100*mt.Mem,
	}
}

// SyntheticModels maps SyntheticModel over a machine population.
func SyntheticModels(mts []trace.MachineType) []Model {
	out := make([]Model, len(mts))
	for i, mt := range mts {
		out[i] = SyntheticModel(mt)
	}
	return out
}

// CurvePoints samples a model's power curve at n CPU utilizations in
// [0,1] with memory utilization tracking CPU (Figure 9's x-axis is CPU
// usage).
func CurvePoints(m Model, n int) []CurvePoint {
	if n < 2 {
		n = 2
	}
	pts := make([]CurvePoint, n)
	for i := 0; i < n; i++ {
		u := float64(i) / float64(n-1)
		pts[i] = CurvePoint{CPUUtil: u, Watts: m.Power(u, u)}
	}
	return pts
}

// CurvePoint is one sample of a power curve.
type CurvePoint struct {
	CPUUtil float64
	Watts   float64
}

// Price is a time-varying electricity price in dollars per kWh.
type Price interface {
	// At returns the price at t seconds since simulation start.
	At(t float64) float64
}

// FlatPrice is a constant electricity price in dollars per kWh.
type FlatPrice float64

// At implements Price.
func (p FlatPrice) At(float64) float64 { return float64(p) }

// DiurnalPrice follows a daily sinusoid: Base + Amplitude·sin(2πt/day +
// phase), floored at zero, in dollars per kWh. It models the run-time electricity price feed
// the paper's objective multiplies energy by.
type DiurnalPrice struct {
	Base      float64
	Amplitude float64
	PhaseHour float64 // hour of day at which the sinusoid crosses upward
}

// At implements Price.
func (p DiurnalPrice) At(t float64) float64 {
	v := p.Base + p.Amplitude*math.Sin(2*math.Pi*(t/trace.Day)-p.PhaseHour*2*math.Pi/24)
	if v < 0 {
		return 0
	}
	return v
}

// Cost converts a power draw sustained for an interval into dollars:
// W/1000 → kW, ·s/3600 → kWh, ·$/kWh → $. TestCost pins the chain.
func Cost(watts, seconds, dollarsPerKWh float64) float64 {
	return watts / 1000 * seconds / 3600 * dollarsPerKWh
}

// The electricity price and switching cost every entry point runs at
// unless a caller supplies its own: the facade, harmonyd's engine, the
// HARMONY policy and the tenant cost model all read them here.
const (
	// DefaultPricePerKWh is the flat electricity price.
	DefaultPricePerKWh = 0.08
	// DefaultSwitchCostDollars is the cost of one on/off transition of
	// the largest machine type (the largestDollars of SwitchCosts).
	DefaultSwitchCostDollars = 0.01
)

// SwitchCosts returns the per-type cost of one on/off transition: the
// cost of switching the largest machine, scaled by each type's idle power
// relative to the largest idle power in models. A fleet with no idle
// draw at all (every IdleWatts zero) switches for free rather than at
// 0/0 — NaN switch costs would poison CBS-RELAX's objective.
func SwitchCosts(models []Model, largestDollars float64) []float64 {
	maxIdle := 0.0
	for _, m := range models {
		if m.IdleWatts > maxIdle {
			maxIdle = m.IdleWatts
		}
	}
	costs := make([]float64, len(models))
	if maxIdle > 0 {
		for i, m := range models {
			costs[i] = largestDollars * m.IdleWatts / maxIdle
		}
	}
	return costs
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
