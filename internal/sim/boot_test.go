package sim

import (
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

func TestBootDelayPostponesScheduling(t *testing.T) {
	tasks := []trace.Task{
		{ID: 1, Submit: 10, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  2000,
	}
	cfg := Config{
		Source:    trace.NewSliceSource(tr),
		Models:    []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:     energy.FlatPrice(0.1),
		Policy:    &staticPolicy{name: "one", target: []int{1}},
		Period:    100,
		NumTypes:  1,
		TypeOf:    func(trace.Task) int { return 0 },
		BootDelay: 250,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 1 {
		t.Fatalf("scheduled = %d", res.Scheduled)
	}
	// The machine powers on at t=0 but is ready only at t=250; the task
	// arriving at t=10 waits until the t=300 period boundary pass (the
	// first scheduling opportunity after readiness).
	delay := res.DelayByGroup[trace.Gratis].Quantile(1)
	if delay < 240 {
		t.Errorf("delay = %v, want >= 240 (boot delay enforced)", delay)
	}
}

func TestBootDelayZeroIsInstant(t *testing.T) {
	tasks := []trace.Task{
		{ID: 1, Submit: 10, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  2000,
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "one", target: []int{1}},
		Period:   100,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.DelayByGroup[trace.Gratis].Quantile(1); d != 0 {
		t.Errorf("delay = %v, want 0 without boot delay", d)
	}
}

func TestRelabelMovesOccupancy(t *testing.T) {
	// One long task initially labeled type 0; the relabel hook flips any
	// task older than 150s to type 1. A quota of {type0: 1, type1: 1}
	// means a second type-0 task can only start after the relabel frees
	// the type-0 slot.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 5000, CPU: 0.1, Mem: 0.1, Priority: 0},
		{ID: 2, Submit: 50, Duration: 100, CPU: 0.1, Mem: 0.1, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  3000,
	}
	cfg := Config{
		Source: trace.NewSliceSource(tr),
		Models: []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:  energy.FlatPrice(0.1),
		Policy: &staticPolicy{
			name:   "quota",
			target: []int{1},
			quota:  [][]int{{1, 1}},
		},
		Period:   100,
		NumTypes: 2,
		TypeOf:   func(trace.Task) int { return 0 },
		Relabel: func(current int, age float64) int {
			if current == 0 && age > 150 {
				return 1
			}
			return current
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 {
		t.Fatalf("scheduled = %d, want 2", res.Scheduled)
	}
	// Task 2 could not start while task 1 held the single type-0 slot;
	// after the relabel pass at t=200 (age 200 > 150) the slot freed and
	// task 2 started at the same boundary: delay = 200 - 50 = 150.
	delay := res.DelayByGroup[trace.Gratis].Quantile(1)
	if delay != 150 {
		t.Errorf("delay = %v, want 150 (freed by relabel)", delay)
	}
}

func TestRelabelIgnoresBadTypes(t *testing.T) {
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 1000, CPU: 0.1, Mem: 0.1, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  2000,
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "one", target: []int{1}},
		Period:   100,
		NumTypes: 2,
		TypeOf:   func(trace.Task) int { return 0 },
		Relabel: func(current int, age float64) int {
			return 99 // out of range: must be ignored
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestPlacementConstraintRespected(t *testing.T) {
	// Two machine types on different platforms; the constrained task may
	// only use PF-B even though PF-A has room.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 100, CPU: 0.1, Mem: 0.1, Priority: 0, Constraint: "PF-B"},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{
			{ID: 1, Platform: "PF-A", CPU: 1, Mem: 1, Count: 1},
			{ID: 2, Platform: "PF-B", CPU: 1, Mem: 1, Count: 1},
		},
		Tasks:   tasks,
		Horizon: 1000,
	}
	models := []energy.Model{
		{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40},
		{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40},
	}

	// Only PF-A powered: the task can never start.
	res, err := Run(Config{
		Source: trace.NewSliceSource(tr), Models: models, Price: energy.FlatPrice(0.1),
		Policy: &staticPolicy{name: "a-only", target: []int{1, 0}},
		Period: 100, NumTypes: 1, TypeOf: func(trace.Task) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 0 {
		t.Errorf("constrained task scheduled on wrong platform")
	}

	// PF-B powered: it runs.
	res, err = Run(Config{
		Source: trace.NewSliceSource(tr), Models: models, Price: energy.FlatPrice(0.1),
		Policy: &staticPolicy{name: "both", target: []int{1, 1}},
		Period: 100, NumTypes: 1, TypeOf: func(trace.Task) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 1 {
		t.Errorf("constrained task not scheduled on its platform")
	}
}
