package core

import (
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/lp"
)

// freshController is a Controller over cur's catalog that has kept
// nothing yet.
func freshController(cur *PlanInput) *Controller {
	return &Controller{
		Machines: cur.Machines, Containers: cur.Containers,
		PeriodSeconds: cur.PeriodSeconds, Horizon: cur.Horizon, Mode: CBS,
	}
}

// TestKeptRelaxationMatchesRebuilt is the oracle of the kept CBS-RELAX
// program: randomized MPC sequences solved through one relaxation that is
// refilled every period give, at every step, exactly the plan (pivot
// count included) and the next basis that SolveRelaxedWarm gives when it
// rebuilds the program from the input — and the matrix is built once.
func TestKeptRelaxationMatchesRebuilt(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < 12; trial++ {
		in := randomInput(r)
		var kept, first *relaxation
		var keptBasis, freshBasis *lp.Basis
		for period := 0; period < 6; period++ {
			if period > 0 {
				in = perturb(r, in)
			}
			var got *Plan
			var err error
			got, keptBasis, kept, err = solveRelaxed(kept, in, keptBasis)
			if err != nil {
				t.Fatalf("trial %d period %d kept: %v", trial, period, err)
			}
			var want *Plan
			want, freshBasis, err = SolveRelaxedWarm(in, freshBasis)
			if err != nil {
				t.Fatalf("trial %d period %d rebuilt: %v", trial, period, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d period %d: plan through the kept program differs from the rebuilt one", trial, period)
			}
			if !reflect.DeepEqual(keptBasis, freshBasis) {
				t.Fatalf("trial %d period %d: next basis differs", trial, period)
			}
			if period == 0 {
				first = kept
			} else if kept != first {
				t.Fatalf("trial %d period %d: program rebuilt although only demand, prices and initial state moved", trial, period)
			}
		}
	}
}

// TestControllerRebuildsOnlyWhenTheMatrixChanges: between two Steps a
// caller may edit the exported catalog. Container values (the policy's
// pressure escalation does this every period) reach only the objective,
// so the kept program is refilled; an edited container CPU changes
// coefficients and a negative initial state flips a row's sign in
// standard form, so both rebuild. Either way the decision is, to the last
// bit, that of a controller made to rebuild its program at every Step.
func TestControllerRebuildsOnlyWhenTheMatrixChanges(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		in := randomInput(r)
		in.Containers = append([]ContainerSpec(nil), in.Containers...)
		ctrl, rebuilding := freshController(in), freshController(in)
		step := func(what string, cur *PlanInput, wantRebuild bool) {
			t.Helper()
			before := ctrl.relax
			got, err := ctrl.Step(cur.InitialActive, cur.Demand, cur.Price)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, what, err)
			}
			rebuilding.relax = nil
			want, err := rebuilding.Step(cur.InitialActive, cur.Demand, cur.Price)
			if err != nil {
				t.Fatalf("trial %d, %s, rebuilding controller: %v", trial, what, err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ctrl.basis, rebuilding.basis) {
				t.Fatalf("trial %d, %s: decision differs from the rebuilding controller's", trial, what)
			}
			if rebuilt := ctrl.relax != before; rebuilt != wantRebuild {
				t.Fatalf("trial %d, %s: program rebuilt = %v, want %v", trial, what, rebuilt, wantRebuild)
			}
		}
		step("first step", in, true)

		in = perturb(r, in)
		for n := range in.Containers {
			in.Containers[n].Value *= 1 + float64(n%3) // the slice both controllers hold
		}
		step("container values edited", in, false)

		in = perturb(r, in)
		in.Containers[0].CPU *= 0.9
		step("container CPU edited", in, true)
		step("same catalog again", perturb(r, in), false)

		in = perturb(r, in)
		in.InitialActive[0] = -2
		step("negative initial state", in, true)
		step("negative initial state again", in, false)
		in = perturb(r, in)
		in.InitialActive[0] = 1
		step("initial state back to non-negative", in, true)
	}
}
