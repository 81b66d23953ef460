package sched

import (
	"testing"

	"harmony/internal/energy"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

func TestAlwaysOn(t *testing.T) {
	p := &AlwaysOn{Counts: []int{3, 2}}
	d := p.Period(&sim.Observation{})
	if d.TargetActive[0] != 3 || d.TargetActive[1] != 2 {
		t.Errorf("directive = %v", d.TargetActive)
	}
	if p.Name() != "always-on" {
		t.Error("name wrong")
	}
	// The returned slice is a copy: mutating it must not corrupt state.
	d.TargetActive[0] = 0
	if p.Counts[0] != 3 {
		t.Error("AlwaysOn state mutated through directive")
	}
}

func TestEfficiencyOrder(t *testing.T) {
	models := []energy.Model{
		{CPUCap: 0.1, MemCap: 0.1, IdleWatts: 50, AlphaCPU: 50, AlphaMem: 0},   // 0.1/100 = 0.001
		{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 0},     // 1/200 = 0.005
		{CPUCap: 0.5, MemCap: 0.5, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 0}, // 0.5/200 = 0.0025
	}
	order := efficiencyOrder(models)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBaselineProvisionsForDemand(t *testing.T) {
	machines := []trace.MachineType{
		{ID: 1, CPU: 0.5, Mem: 0.5, Count: 10},
		{ID: 2, CPU: 1, Mem: 1, Count: 4},
	}
	models := []energy.Model{
		{CPUCap: 0.5, MemCap: 0.5, IdleWatts: 100, AlphaCPU: 50, AlphaMem: 20},
		{CPUCap: 1, MemCap: 1, IdleWatts: 150, AlphaCPU: 80, AlphaMem: 30},
	}
	b := &Baseline{Machines: machines, Models: models}

	// No demand: nothing on.
	d := b.Period(&sim.Observation{})
	if d.TargetActive[0] != 0 || d.TargetActive[1] != 0 {
		t.Errorf("idle directive = %v", d.TargetActive)
	}

	// Demand of 2.0 CPU at 80% target -> 2.5 capacity needed.
	d = b.Period(&sim.Observation{RunningDemandCPU: 1.5, QueuedDemandCPU: 0.5,
		RunningDemandMem: 1.0, QueuedDemandMem: 0.2})
	var cap float64
	for ti, n := range d.TargetActive {
		cap += float64(n) * machines[ti].CPU
	}
	if cap < 2.5 {
		t.Errorf("provisioned CPU capacity %v < 2.5", cap)
	}
	// Big machines are more capacity-efficient per watt here: the greedy
	// order uses them first and never needs the small type.
	if d.TargetActive[1] < 3 || d.TargetActive[0] != 0 {
		t.Errorf("greedy efficiency order not followed: %v", d.TargetActive)
	}
	if b.Name() != "baseline" {
		t.Error("name wrong")
	}
}

func TestBaselineRespectsCounts(t *testing.T) {
	machines := []trace.MachineType{{ID: 1, CPU: 0.5, Mem: 0.5, Count: 2}}
	models := []energy.Model{{CPUCap: 0.5, MemCap: 0.5, IdleWatts: 100, AlphaCPU: 50}}
	b := &Baseline{Machines: machines, Models: models}
	d := b.Period(&sim.Observation{QueuedDemandCPU: 100, QueuedDemandMem: 100})
	if d.TargetActive[0] != 2 {
		t.Errorf("over count: %v", d.TargetActive)
	}
}
