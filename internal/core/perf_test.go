package core

import (
	"math/rand"
	"testing"
)

// TestPlacementMergeAllocFree pins the allocation contract of the
// placement glue a tick runs per machine type: the per-type packing
// budget, the projection diff the delta path reuses on, and the merges
// that fold packings into a decision write only into storage the caller
// sized. Each allocates nothing; an allocation there would scale with
// the catalog on every tick.
func TestPlacementMergeAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in := wideInput(r, 10)
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	prev, err := ctrl.Realize(plan)
	if err != nil {
		t.Fatal(err)
	}
	churned := churnBusiestType(ctrl, plan)
	nm := len(in.Machines)
	parts := make([]typePacking, nm)
	packed := 0
	for m := range parts {
		parts[m] = ctrl.packType(plan, m)
		packed += len(parts[m].packings)
	}
	if packed == 0 {
		t.Fatal("the plan packs no machine: the merges below would copy nothing")
	}
	d := &Decision{
		ActiveMachines: make([]int, nm),
		Quota:          make([][]int, nm),
		Packings:       make([][][]int, nm),
		Dropped:        make([]int, len(in.Containers)),
		Plan:           plan,
	}

	budget, changed := 0, 0
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"packBudget", func() {
			for m := 0; m < nm; m++ {
				budget += ctrl.packBudget(churned, m)
			}
		}},
		{"typeProjectionEqual", func() {
			changed = 0
			for m := 0; m < nm; m++ {
				if !ctrl.typeProjectionEqual(plan, churned, m) {
					changed++
				}
			}
		}},
		{"mergeParts", func() {
			if err := mergeParts(d, parts); err != nil {
				t.Fatal(err)
			}
		}},
		{"mergeReusedType", func() {
			for m := 0; m < nm; m++ {
				mergeReusedType(d, prev, plan, m)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", tc.name, allocs)
		}
	}
	if budget == 0 || changed != 1 {
		t.Errorf("machine budget %d, %d types changed: the churn of one type's plan did not reach the diff", budget, changed)
	}
}
