package core

import (
	"math/rand"
	"testing"
)

// flatPlan builds a period-0-only plan directly (no LP solve) from the
// given active machines and allocation matrix, so placement tests can
// exercise configurations the LP would never emit.
func flatPlan(active []float64, alloc [][]float64) *Plan {
	p := &Plan{
		Active: make([][]float64, len(active)),
		Alloc:  make([][][]float64, len(alloc)),
	}
	for m, z := range active {
		p.Active[m] = []float64{z}
		p.Alloc[m] = make([][]float64, len(alloc[m]))
		for n, x := range alloc[m] {
			p.Alloc[m][n] = []float64{x}
		}
	}
	return p
}

// TestZeroBudgetDropAccounting pins the headline accounting fix: a
// machine type whose budget rounds to zero (here: no machines available)
// must report the containers the plan allocated to it as dropped, and
// still report the plan's caps as quotas, instead of making both vanish.
func TestZeroBudgetDropAccounting(t *testing.T) {
	ctrl := &Controller{
		Machines: []MachineSpec{
			{Type: 1, CPU: 1, Mem: 1, Available: 0}, // budget 0 despite z* > 0
			{Type: 2, CPU: 1, Mem: 1, Available: 8},
		},
		Containers: []ContainerSpec{
			{Type: 0, CPU: 0.2, Mem: 0.2, Omega: 1},
			{Type: 1, CPU: 0.1, Mem: 0.1, Omega: 1},
		},
		PeriodSeconds: 300, Horizon: 1, Mode: CBS,
	}
	plan := flatPlan(
		[]float64{2, 1},
		[][]float64{
			{3, 0.4}, // type 0: 3 whole containers dropped; type 1: cap 1, floor 0
			{2, 1},
		},
	)
	dec, err := ctrl.Realize(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Dropped[0], 3; got != want {
		t.Errorf("Dropped[0] = %d, want %d (zero-budget containers not counted)", got, want)
	}
	if got := dec.Dropped[1]; got != 0 {
		t.Errorf("Dropped[1] = %d, want 0 (fractional alloc floors to no items)", got)
	}
	if got, want := dec.Quota[0][0], 3; got != want {
		t.Errorf("Quota[0][0] = %d, want %d (plan cap must survive a zero budget)", got, want)
	}
	if got, want := dec.Quota[0][1], 1; got != want {
		t.Errorf("Quota[0][1] = %d, want %d", got, want)
	}
	if dec.ActiveMachines[0] != 0 || len(dec.Packings[0]) != 0 {
		t.Errorf("zero-budget type packed machines: active %d, packings %d",
			dec.ActiveMachines[0], len(dec.Packings[0]))
	}
	// The healthy type is unaffected: its three containers (0.5 total
	// load) first-fit into one machine.
	if got, want := dec.ActiveMachines[1], 1; got != want {
		t.Errorf("ActiveMachines[1] = %d, want %d", got, want)
	}
}

// randomPlacementCase builds a random controller catalog and a random
// well-formed period-0 plan. Container sizes are kept within every
// machine's capacity so packing never rejects an item outright, and some
// machine types draw a zero budget (Available 0 or z* 0) so the
// zero-budget accounting is exercised under the property test too.
func randomPlacementCase(r *rand.Rand) (*Controller, *Plan) {
	nm := 1 + r.Intn(5)
	nn := 1 + r.Intn(6)
	ctrl := &Controller{PeriodSeconds: 300, Horizon: 1, Mode: CBS}
	for m := 0; m < nm; m++ {
		avail := r.Intn(10) // 0 is a valid, interesting catalog entry
		ctrl.Machines = append(ctrl.Machines, MachineSpec{
			Type: m + 1, CPU: 0.5 + r.Float64()*0.5, Mem: 0.5 + r.Float64()*0.5,
			Available: avail,
		})
	}
	for n := 0; n < nn; n++ {
		// Max effective demand 1.4·0.3 = 0.42 < 0.5 min machine capacity.
		ctrl.Containers = append(ctrl.Containers, ContainerSpec{
			Type: n, CPU: 0.01 + r.Float64()*0.29, Mem: 0.01 + r.Float64()*0.29,
			Omega: 1 + r.Float64()*0.4,
		})
	}
	active := make([]float64, nm)
	alloc := make([][]float64, nm)
	for m := 0; m < nm; m++ {
		active[m] = r.Float64() * float64(ctrl.Machines[m].Available+2)
		if r.Intn(4) == 0 {
			active[m] = 0
		}
		alloc[m] = make([]float64, nn)
		for n := 0; n < nn; n++ {
			alloc[m][n] = r.Float64() * 8
		}
	}
	return ctrl, flatPlan(active, alloc)
}

// placedByType sums the packed per-machine counts of one decision into a
// per-container-type total.
func placedByType(dec *Decision, nn int) []int {
	placed := make([]int, nn)
	for m := range dec.Packings {
		for _, pack := range dec.Packings[m] {
			for n, cnt := range pack {
				placed[n] += cnt
			}
		}
	}
	return placed
}

// TestPlacementConservation is the placement conservation property: for
// randomized plans, every whole container the plan allocates is either
// packed onto a machine or counted in Decision.Dropped — none vanish and
// none are invented. Checked for the full repack and the delta path.
func TestPlacementConservation(t *testing.T) {
	r := rand.New(rand.NewSource(771))
	for trial := 0; trial < 200; trial++ {
		ctrl, plan := randomPlacementCase(r)
		nn := len(ctrl.Containers)
		dec, err := ctrl.Realize(plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// A delta realization against the full decision must conserve
		// identically (all types reused).
		delta, err := ctrl.RealizeDelta(dec, plan)
		if err != nil {
			t.Fatalf("trial %d delta: %v", trial, err)
		}
		for _, tc := range []struct {
			name string
			d    *Decision
		}{{"full", dec}, {"delta", delta}} {
			name, d := tc.name, tc.d
			placed := placedByType(d, nn)
			for n := 0; n < nn; n++ {
				want := 0
				for m := range ctrl.Machines {
					want += itemCount(plan, m, n)
				}
				if got := placed[n] + d.Dropped[n]; got != want {
					t.Fatalf("trial %d (%s): type %d: placed %d + dropped %d = %d, want %d planned",
						trial, name, n, placed[n], d.Dropped[n], got, want)
				}
			}
		}
	}
}

// TestPackTypeCatalogLimit pins that there is none: packing is in counts
// per container type, so a 65,537-type catalog packs, and its last type
// (the one a 16-bit type field would have folded onto type 0) is counted
// on its own.
func TestPackTypeCatalogLimit(t *testing.T) {
	const nn = 1<<16 + 1
	ctrl := &Controller{
		Machines:      []MachineSpec{{Type: 1, CPU: 1, Mem: 1, Available: 2}},
		Containers:    make([]ContainerSpec, nn),
		PeriodSeconds: 300, Horizon: 1, Mode: CBS,
	}
	for n := range ctrl.Containers {
		ctrl.Containers[n] = ContainerSpec{Type: n, CPU: 0.1, Mem: 0.1, Omega: 1}
	}
	alloc := [][]float64{make([]float64, nn)}
	alloc[0][0], alloc[0][nn-1] = 3, 4
	dec, err := ctrl.Realize(flatPlan([]float64{1}, alloc))
	if err != nil {
		t.Fatal(err)
	}
	if dec.ActiveMachines[0] != 1 || len(dec.Packings[0]) != 1 {
		t.Fatalf("active=%d packings=%d, want one machine", dec.ActiveMachines[0], len(dec.Packings[0]))
	}
	pack := dec.Packings[0][0]
	if len(pack) != nn || pack[0] != 3 || pack[nn-1] != 4 {
		t.Errorf("packed %d of type 0 and %d of type %d, want 3 and 4", pack[0], pack[nn-1], nn-1)
	}
	for n, cnt := range dec.Dropped {
		if cnt != 0 {
			t.Errorf("type %d: %d dropped", n, cnt)
		}
	}
}
