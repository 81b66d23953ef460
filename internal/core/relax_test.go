package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"harmony/internal/lp"
)

// twoTypes is a small fleet: an efficient small machine and a big machine.
func twoTypes() []MachineSpec {
	return []MachineSpec{
		{Type: 1, CPU: 0.25, Mem: 0.25, Available: 100,
			IdleWatts: 60, AlphaCPU: 45, AlphaMem: 15, SwitchCost: 0.001},
		{Type: 2, CPU: 1, Mem: 1, Available: 50,
			IdleWatts: 260, AlphaCPU: 260, AlphaMem: 110, SwitchCost: 0.004},
	}
}

func smallInput() *PlanInput {
	return &PlanInput{
		PeriodSeconds: 300,
		Horizon:       2,
		Machines:      twoTypes(),
		Containers: []ContainerSpec{
			{Type: 0, CPU: 0.1, Mem: 0.1, Value: 0.01},
			{Type: 1, CPU: 0.5, Mem: 0.4, Value: 0.05},
		},
		Demand:        [][]float64{{10, 12}, {3, 3}},
		Price:         []float64{0.08, 0.08},
		InitialActive: []float64{0, 0},
	}
}

func TestValidateInput(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*PlanInput)
	}{
		{"zero period", func(in *PlanInput) { in.PeriodSeconds = 0 }},
		{"zero horizon", func(in *PlanInput) { in.Horizon = 0 }},
		{"no machines", func(in *PlanInput) { in.Machines = nil }},
		{"no containers", func(in *PlanInput) { in.Containers = nil }},
		{"demand rows", func(in *PlanInput) { in.Demand = in.Demand[:1] }},
		{"demand cols", func(in *PlanInput) { in.Demand[0] = in.Demand[0][:1] }},
		{"negative demand", func(in *PlanInput) { in.Demand[0][0] = -1 }},
		{"price len", func(in *PlanInput) { in.Price = in.Price[:1] }},
		{"initial len", func(in *PlanInput) { in.InitialActive = nil }},
		{"bad machine", func(in *PlanInput) { in.Machines[0].CPU = 0 }},
		{"bad container", func(in *PlanInput) { in.Containers[0].CPU = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := smallInput()
			tt.mutate(in)
			if _, err := SolveRelaxed(in); !errors.Is(err, ErrBadInput) {
				t.Errorf("want ErrBadInput, got %v", err)
			}
		})
	}
}

func TestCompatible(t *testing.T) {
	m := MachineSpec{CPU: 0.25, Mem: 0.25}
	if !Compatible(m, ContainerSpec{CPU: 0.25, Mem: 0.2}) {
		t.Error("fitting container rejected")
	}
	if Compatible(m, ContainerSpec{CPU: 0.3, Mem: 0.1}) {
		t.Error("oversized container accepted")
	}
	// Omega inflation can make a container incompatible.
	if Compatible(m, ContainerSpec{CPU: 0.2, Mem: 0.2, Omega: 1.5}) {
		t.Error("omega-inflated container accepted")
	}
}

func TestSolveRelaxedMeetsDemand(t *testing.T) {
	in := smallInput()
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	// Utility dominates energy here, so all demand should be scheduled.
	for n := range in.Containers {
		for tt := 0; tt < in.Horizon; tt++ {
			if plan.Scheduled[n][tt] < in.Demand[n][tt]-1e-6 {
				t.Errorf("scheduled[%d][%d] = %v < demand %v",
					n, tt, plan.Scheduled[n][tt], in.Demand[n][tt])
			}
		}
	}
}

func TestSolveRelaxedRespectsCapacityAndAvailability(t *testing.T) {
	in := smallInput()
	in.Demand = [][]float64{{4000, 4000}, {500, 500}} // far beyond capacity
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	for m, ms := range in.Machines {
		for tt := 0; tt < in.Horizon; tt++ {
			if plan.Active[m][tt] > float64(ms.Available)+1e-6 {
				t.Errorf("active[%d][%d] = %v > available %d",
					m, tt, plan.Active[m][tt], ms.Available)
			}
			var cpu, mem float64
			for n, cs := range in.Containers {
				cpu += cs.CPU * plan.Alloc[m][n][tt]
				mem += cs.Mem * plan.Alloc[m][n][tt]
			}
			if cpu > ms.CPU*plan.Active[m][tt]+1e-5 {
				t.Errorf("cpu capacity violated on type %d at %d: %v > %v",
					m, tt, cpu, ms.CPU*plan.Active[m][tt])
			}
			if mem > ms.Mem*plan.Active[m][tt]+1e-5 {
				t.Errorf("mem capacity violated on type %d at %d", m, tt)
			}
		}
	}
}

func TestSolveRelaxedIncompatiblePairsGetZero(t *testing.T) {
	in := smallInput()
	// Container 1 (0.5/0.4) cannot fit machine type 0 (0.25/0.25).
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < in.Horizon; tt++ {
		if plan.Alloc[0][1][tt] != 0 {
			t.Errorf("incompatible alloc = %v", plan.Alloc[0][1][tt])
		}
	}
}

// With zero utility, turning anything on only costs money: the plan should
// keep everything off.
func TestSolveRelaxedNoValueNoMachines(t *testing.T) {
	in := smallInput()
	for i := range in.Containers {
		in.Containers[i].Value = 0
	}
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	for m := range in.Machines {
		for tt := 0; tt < in.Horizon; tt++ {
			if plan.Active[m][tt] > 1e-6 {
				t.Errorf("machines on with zero utility: %v", plan.Active[m][tt])
			}
		}
	}
	if plan.Objective > 1e-6 || plan.Objective < -1e-6 {
		t.Errorf("objective = %v, want 0", plan.Objective)
	}
}

// Heterogeneity-awareness: with small containers and both machine types
// able to host them, the optimizer should prefer the machine type with
// lower energy per unit of delivered capacity.
func TestSolveRelaxedPrefersEfficientMachines(t *testing.T) {
	in := &PlanInput{
		PeriodSeconds: 300,
		Horizon:       1,
		Machines: []MachineSpec{
			// Type A: 100W idle for 0.5 capacity -> 200 W per unit.
			{Type: 1, CPU: 0.5, Mem: 0.5, Available: 100,
				IdleWatts: 100, AlphaCPU: 10, AlphaMem: 10, SwitchCost: 0},
			// Type B: 500W idle for 1.0 capacity -> 500 W per unit.
			{Type: 2, CPU: 1, Mem: 1, Available: 100,
				IdleWatts: 500, AlphaCPU: 10, AlphaMem: 10, SwitchCost: 0},
		},
		Containers:    []ContainerSpec{{Type: 0, CPU: 0.1, Mem: 0.1, Value: 0.01}},
		Demand:        [][]float64{{50}},
		Price:         []float64{0.10},
		InitialActive: []float64{0, 0},
	}
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Active[1][0] > 1e-6 {
		t.Errorf("inefficient type used: %v machines", plan.Active[1][0])
	}
	if plan.Active[0][0] < 9.9 { // 50 containers × 0.1 cpu / 0.5 cap = 10 machines
		t.Errorf("efficient type underused: %v machines", plan.Active[0][0])
	}
}

// Switching costs damp reactions: with a huge switch cost and machines
// already on, the plan should keep them rather than flapping off/on.
func TestSolveRelaxedSwitchingCostDampens(t *testing.T) {
	base := &PlanInput{
		PeriodSeconds: 300,
		Horizon:       2,
		Machines: []MachineSpec{
			{Type: 1, CPU: 1, Mem: 1, Available: 20,
				IdleWatts: 100, AlphaCPU: 100, AlphaMem: 50, SwitchCost: 0},
		},
		Containers: []ContainerSpec{{Type: 0, CPU: 0.5, Mem: 0.5, Value: 0.004}},
		// Demand dips to zero in period 0 and returns in period 1.
		Demand:        [][]float64{{0, 20}},
		Price:         []float64{0.10, 0.10},
		InitialActive: []float64{10},
	}
	freePlan, err := SolveRelaxed(base)
	if err != nil {
		t.Fatal(err)
	}
	// With free switching the dip empties the fleet in period 0.
	if freePlan.Active[0][0] > 1e-6 {
		t.Fatalf("free-switch plan kept %v machines", freePlan.Active[0][0])
	}

	costly := *base
	costly.Machines = []MachineSpec{base.Machines[0]}
	costly.Machines[0].SwitchCost = 10 // switching costs dwarf energy
	costlyPlan, err := SolveRelaxed(&costly)
	if err != nil {
		t.Fatal(err)
	}
	if costlyPlan.Active[0][0] < 9 {
		t.Errorf("costly-switch plan dropped to %v machines; want ~10 retained",
			costlyPlan.Active[0][0])
	}
}

// The scheduled amount never exceeds demand (utility is capped).
func TestSolveRelaxedScheduleCappedByDemand(t *testing.T) {
	in := smallInput()
	in.Containers[0].Value = 100 // absurdly valuable
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	for n := range in.Containers {
		for tt := 0; tt < in.Horizon; tt++ {
			if plan.Scheduled[n][tt] > in.Demand[n][tt]+1e-6 {
				t.Errorf("scheduled %v > demand %v", plan.Scheduled[n][tt], in.Demand[n][tt])
			}
		}
	}
}

func TestSolveRelaxedOmegaReservesHeadroom(t *testing.T) {
	in := smallInput()
	in.Demand = [][]float64{{100, 100}, {0, 0}}
	plain, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := smallInput()
	in2.Demand = [][]float64{{100, 100}, {0, 0}}
	in2.Containers[0].Omega = 1.5
	inflated, err := SolveRelaxed(in2)
	if err != nil {
		t.Fatal(err)
	}
	// The same scheduled load must reserve at least as much machine
	// capacity with ω (machine counts can shift between types, so
	// compare provisioned CPU capacity).
	sumPlain, sumInfl := 0.0, 0.0
	for m, ms := range in.Machines {
		sumPlain += plain.Active[m][0] * ms.CPU
		sumInfl += inflated.Active[m][0] * ms.CPU
	}
	if sumInfl < sumPlain-1e-6 {
		t.Errorf("omega plan reserves less capacity: %v < %v", sumInfl, sumPlain)
	}
	if math.Abs(sumInfl-sumPlain) < 1e-9 {
		t.Errorf("omega had no effect (%v == %v)", sumInfl, sumPlain)
	}
}

// TestBadlyScaledProgramIsNotUnbounded pins a program whose variables
// are all bounded but whose coefficients span twenty orders of
// magnitude (a 1e20 s period, 1e6 arrivals per class on the two smallest
// Table II types): a solver that trusted its pivots answered
// lp.ErrUnbounded. The answer must be a certified plan or an error that
// names the scaling, never "unbounded".
func TestBadlyScaledProgramIsNotUnbounded(t *testing.T) {
	const doc = `{"PeriodSeconds":1e20,"Horizon":2,
	"Machines":[{"Type":1,"CPU":0.08333333333333333,"Mem":0.0625,"Available":70,"IdleWatts":60,"AlphaCPU":45,"AlphaMem":15,"SwitchCost":0.005},
		{"Type":2,"CPU":0.25,"Mem":0.5,"Available":15,"IdleWatts":120,"AlphaCPU":115,"AlphaMem":45,"SwitchCost":0.01}],
	"Containers":[{"Type":0,"CPU":0.02553898851388876,"Mem":0.02553898851388876,"Value":8512996171296254,"Omega":1.05},
		{"Type":1,"CPU":0.02553898851388876,"Mem":0.02553898851388876,"Value":102155954055555.05,"Omega":1.05},
		{"Type":2,"CPU":0.12215595405555504,"Mem":0.12215595405555504,"Value":814373027037033600,"Omega":1.05}],
	"Demand":[[50002,50002],[0,0],[1,1]],"Price":[0.08,0.08],"InitialActive":[0,0]}`
	var in PlanInput
	if err := json.Unmarshal([]byte(doc), &in); err != nil {
		t.Fatal(err)
	}
	plan, err := SolveRelaxed(&in)
	switch {
	case errors.Is(err, lp.ErrUnbounded):
		t.Fatalf("a program with bounded variables: %v", err)
	case err != nil && !strings.Contains(err.Error(), "scaled"):
		t.Fatalf("the error does not name the scaling: %v", err)
	case err == nil:
		assertPlanFeasible(t, &in, plan)
	}
	t.Logf("err = %v", err)
}
