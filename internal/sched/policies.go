// Package sched provides the provisioning policies evaluated in the paper:
// the heterogeneity-oblivious baseline (80% bottleneck-utilization target,
// machines powered greedily by energy efficiency), an always-on reference,
// and the HARMONY policy that wires task classification, ARIMA forecasting,
// queueing-based container counts, and the CBS/CBP controller together.
package sched

import (
	"harmony/internal/energy"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// AlwaysOn keeps every machine powered. It is the no-DCP reference the
// workload analysis figures (3 and 4) are measured against.
type AlwaysOn struct {
	Counts []int // machine count per type
}

// Name implements sim.Policy.
func (a *AlwaysOn) Name() string { return "always-on" }

// Period implements sim.Policy.
func (a *AlwaysOn) Period(*sim.Observation) sim.Directive {
	return sim.Directive{TargetActive: append([]int(nil), a.Counts...)}
}

// Baseline is the heterogeneity-oblivious comparison policy of
// Section IX-B: a reactive autoscaler that keeps the bottleneck resource
// of the powered fleet at a target utilization (80%), powering machines on
// in decreasing order of energy efficiency. It is oblivious in exactly the
// ways the paper describes: it watches only aggregate utilization — not
// the composition of the queue — so it cannot tell that waiting tasks need
// machine types it has not powered, and it scales capacity multiplicatively
// rather than planning from per-class demand.
type Baseline struct {
	Machines    []trace.MachineType
	Models      []energy.Model
	Utilization float64 // bottleneck-utilization target; default 0.8

	order []int // machine types sorted by descending efficiency
}

// Name implements sim.Policy.
func (b *Baseline) Name() string { return "baseline" }

// Period implements sim.Policy.
func (b *Baseline) Period(obs *sim.Observation) sim.Directive {
	if b.order == nil {
		b.order = efficiencyOrder(b.Models)
	}
	target := b.Utilization
	if target <= 0 || target > 1 {
		target = 0.8
	}

	// The baseline watches a single aggregate: the bottleneck resource
	// (whichever of CPU or memory is more utilized fleet-wide). It is
	// deliberately blind to the other resource and to the composition
	// of the queue — the obliviousness the paper evaluates against.
	var activeCPU, activeMem float64
	for ti, n := range obs.Active {
		activeCPU += float64(n) * b.Machines[ti].CPU
		activeMem += float64(n) * b.Machines[ti].Mem
	}
	queueBacklog := obs.QueuedDemandCPU > 0 || obs.QueuedDemandMem > 0

	// Pick the bottleneck resource by demand pressure.
	cpuBound := obs.RunningDemandCPU+obs.QueuedDemandCPU >=
		obs.RunningDemandMem+obs.QueuedDemandMem

	capOf := func(mt trace.MachineType) float64 {
		if cpuBound {
			return mt.CPU
		}
		return mt.Mem
	}
	activeCap := activeMem
	runDemand := obs.RunningDemandMem
	totDemand := obs.RunningDemandMem + obs.QueuedDemandMem
	if cpuBound {
		activeCap = activeCPU
		runDemand = obs.RunningDemandCPU
		totDemand = obs.RunningDemandCPU + obs.QueuedDemandCPU
	}

	var need float64
	if activeCap == 0 {
		// Cold start: seed from visible aggregate demand.
		need = totDemand / target
	} else {
		// Feedback on the observed utilization of the powered fleet.
		// The controller knows nothing about what the queued tasks
		// need — a backlog reads as "fully utilized", so it adds
		// capacity blindly in efficiency order whether or not the new
		// machines can host what is actually waiting. This is the
		// wastage mechanism the paper attributes to
		// heterogeneity-oblivious provisioning.
		util := runDemand / activeCap
		if queueBacklog && util < 1 {
			util = 1
		}
		need = activeCap * util / target
	}

	active := make([]int, len(b.Machines))
	have := 0.0
	for _, ti := range b.order {
		if have >= need {
			break
		}
		mt := b.Machines[ti]
		for k := 0; k < mt.Count && have < need; k++ {
			active[ti]++
			have += capOf(mt)
		}
	}
	return sim.Directive{TargetActive: active}
}

// efficiencyOrder returns machine-type indices in decreasing order of
// capacity delivered per watt at peak — the "greedy" order of the paper's
// baseline.
func efficiencyOrder(models []energy.Model) []int {
	order := make([]int, len(models))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			if models[a].EfficiencyAtPeak() > models[b].EfficiencyAtPeak() {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	return order
}
