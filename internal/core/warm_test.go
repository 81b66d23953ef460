package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/lp"
)

// perturb returns a copy of in with the MPC-shaped drift between
// consecutive control periods: demand, prices, and initial machine state
// move; the machine/container catalog (and hence the LP matrix) stays.
func perturb(r *rand.Rand, in *PlanInput) *PlanInput {
	out := &PlanInput{
		PeriodSeconds: in.PeriodSeconds,
		Horizon:       in.Horizon,
		Machines:      in.Machines,
		Containers:    in.Containers,
		Demand:        make([][]float64, len(in.Demand)),
		Price:         make([]float64, len(in.Price)),
		InitialActive: make([]float64, len(in.InitialActive)),
	}
	for n, row := range in.Demand {
		out.Demand[n] = make([]float64, len(row))
		for t, d := range row {
			nd := math.Floor(d * (0.8 + r.Float64()*0.4))
			if nd < 0 {
				nd = 0
			}
			out.Demand[n][t] = nd
		}
	}
	for t, p := range in.Price {
		out.Price[t] = p * (0.9 + r.Float64()*0.2)
	}
	for m, a := range in.InitialActive {
		na := math.Round(a * (0.8 + r.Float64()*0.4))
		if max := float64(in.Machines[m].Available); na > max {
			na = max
		}
		out.InitialActive[m] = na
	}
	return out
}

// TestSolveRelaxedWarmMatchesCold drives randomized MPC sequences:
// each period's input is a perturbation of the last, solved both cold
// and warm-started from the previous basis. Objectives must agree and
// the warm plans must satisfy the same feasibility invariants; across
// all sequences the warm path must pivot strictly less.
func TestSolveRelaxedWarmMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	coldIters, warmIters := 0, 0
	for trial := 0; trial < 12; trial++ {
		in := randomInput(r)
		var basis *lp.Basis
		for period := 0; period < 6; period++ {
			if period > 0 {
				in = perturb(r, in)
			}
			cold, err := SolveRelaxed(in)
			if err != nil {
				t.Fatalf("trial %d period %d cold: %v", trial, period, err)
			}
			warm, next, err := SolveRelaxedWarm(in, basis)
			if err != nil {
				t.Fatalf("trial %d period %d warm: %v", trial, period, err)
			}
			basis = next
			tol := 1e-6 * (1 + math.Abs(cold.Objective))
			if math.Abs(cold.Objective-warm.Objective) > tol {
				t.Fatalf("trial %d period %d: cold obj %g, warm obj %g",
					trial, period, cold.Objective, warm.Objective)
			}
			assertPlanFeasible(t, in, warm)
			coldIters += cold.Iterations
			if period > 0 {
				warmIters += warm.Iterations
			}
		}
	}
	if warmIters >= coldIters {
		t.Fatalf("warm starts saved nothing: %d warm pivots vs %d cold", warmIters, coldIters)
	}
	t.Logf("pivots: cold=%d warm=%d", coldIters, warmIters)
}

// assertPlanFeasible checks the CBS-RELAX invariants (the same set as
// TestSolveRelaxedInvariants) on one plan.
func assertPlanFeasible(t *testing.T, in *PlanInput, plan *Plan) {
	t.Helper()
	for m, ms := range in.Machines {
		for tt := 0; tt < in.Horizon; tt++ {
			z := plan.Active[m][tt]
			if z < -1e-6 || z > float64(ms.Available)+1e-6 {
				t.Fatalf("z[%d][%d] = %v out of [0,%d]", m, tt, z, ms.Available)
			}
			var cpu, mem float64
			for n, cs := range in.Containers {
				x := plan.Alloc[m][n][tt]
				if x < -1e-6 {
					t.Fatalf("negative alloc x[%d][%d][%d]", m, n, tt)
				}
				if x > 1e-9 && !Compatible(ms, cs) {
					t.Fatalf("incompatible pair allocated")
				}
				om := cs.Omega
				if om < 1 {
					om = 1
				}
				cpu += om * cs.CPU * x
				mem += om * cs.Mem * x
			}
			if cpu > ms.CPU*z+1e-5 || mem > ms.Mem*z+1e-5 {
				t.Fatalf("capacity violated on type %d period %d", m, tt)
			}
		}
	}
	for n := range in.Containers {
		for tt := 0; tt < in.Horizon; tt++ {
			s := plan.Scheduled[n][tt]
			if s < -1e-6 || s > in.Demand[n][tt]+1e-6 {
				t.Fatalf("scheduled %v outside [0, %v]", s, in.Demand[n][tt])
			}
		}
	}
}

// TestControllerWarmAcrossSteps: a controller's second Step reuses the
// basis from the first, and both decisions match what a fresh cold
// controller produces on the same inputs.
func TestControllerWarmAcrossSteps(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		in := randomInput(r)
		warmCtrl := &Controller{
			Machines: in.Machines, Containers: in.Containers,
			PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
		}
		next := perturb(r, in)
		for period, cur := range []*PlanInput{in, next} {
			coldCtrl := &Controller{
				Machines: cur.Machines, Containers: cur.Containers,
				PeriodSeconds: cur.PeriodSeconds, Horizon: cur.Horizon, Mode: CBS,
			}
			wd, err := warmCtrl.Step(cur.InitialActive, cur.Demand, cur.Price)
			if err != nil {
				t.Fatalf("trial %d period %d warm: %v", trial, period, err)
			}
			cd, err := coldCtrl.Step(cur.InitialActive, cur.Demand, cur.Price)
			if err != nil {
				t.Fatalf("trial %d period %d cold: %v", trial, period, err)
			}
			if !reflect.DeepEqual(wd.ActiveMachines, cd.ActiveMachines) {
				t.Fatalf("trial %d period %d: active %v (warm) vs %v (cold)",
					trial, period, wd.ActiveMachines, cd.ActiveMachines)
			}
			if !reflect.DeepEqual(wd.Quota, cd.Quota) {
				t.Fatalf("trial %d period %d: quota diverged", trial, period)
			}
		}
		if warmCtrl.basis == nil {
			t.Fatalf("trial %d: controller did not retain a basis", trial)
		}
	}
}

// wideInput builds an instance with many machine types so the parallel
// per-type placement actually fans out.
func wideInput(r *rand.Rand, nm int) *PlanInput {
	in := &PlanInput{PeriodSeconds: 300, Horizon: 2}
	for m := 0; m < nm; m++ {
		in.Machines = append(in.Machines, MachineSpec{
			Type:       m + 1,
			CPU:        0.3 + r.Float64()*0.7,
			Mem:        0.3 + r.Float64()*0.7,
			Available:  5 + r.Intn(40),
			IdleWatts:  50 + r.Float64()*200,
			AlphaCPU:   50 + r.Float64()*200,
			AlphaMem:   10 + r.Float64()*50,
			SwitchCost: r.Float64() * 0.01,
		})
	}
	nn := 4 + r.Intn(5)
	for n := 0; n < nn; n++ {
		in.Containers = append(in.Containers, ContainerSpec{
			Type:  n,
			CPU:   0.02 + r.Float64()*0.3,
			Mem:   0.02 + r.Float64()*0.3,
			Value: 0.05 + r.Float64()*0.2,
			Omega: 1 + r.Float64()*0.3,
		})
	}
	in.Demand = make([][]float64, nn)
	for n := range in.Demand {
		in.Demand[n] = make([]float64, in.Horizon)
		for t := range in.Demand[n] {
			in.Demand[n][t] = math.Floor(r.Float64() * 120)
		}
	}
	in.Price = []float64{0.08, 0.1}
	in.InitialActive = make([]float64, nm)
	for m := range in.InitialActive {
		in.InitialActive[m] = float64(r.Intn(in.Machines[m].Available))
	}
	return in
}
