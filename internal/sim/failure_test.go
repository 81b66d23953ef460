package sim

import (
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

func failureConfig(tr *trace.Trace, mtbf float64) Config {
	return Config{
		Source:    trace.NewSliceSource(tr),
		Models:    []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:     energy.FlatPrice(0.1),
		Policy:    &staticPolicy{name: "on", target: []int{4}},
		Period:    100,
		NumTypes:  1,
		TypeOf:    func(trace.Task) int { return 0 },
		MTBFHours: mtbf,
	}
}

func TestFailureInjectionKillsAndRequeues(t *testing.T) {
	// Long tasks on a small cluster with an aggressive failure rate:
	// failures must abort executions, requeue, and still finish work.
	var tasks []trace.Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, trace.Task{
			ID: uint64(i + 1), Submit: float64(i), Duration: 300,
			CPU: 0.2, Mem: 0.2, Priority: 0,
		})
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 4}},
		Tasks:    tasks,
		Horizon:  40000,
	}
	// MTBF of ~0.1h with 100s periods: p(fail) per period ~ 0.28.
	res, err := Run(failureConfig(tr, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures injected despite tiny MTBF")
	}
	if res.TasksKilled == 0 {
		t.Error("failures killed no executions on a busy cluster")
	}
	// Conservation still holds: every task is scheduled or unscheduled.
	if res.Scheduled+res.Unscheduled != len(tasks) {
		t.Errorf("conservation broken: %d + %d != %d",
			res.Scheduled, res.Unscheduled, len(tasks))
	}
	// The horizon is generous: most tasks should eventually complete
	// despite churn.
	if res.Completed == 0 {
		t.Error("nothing completed despite long horizon")
	}
}

func TestNoFailuresWhenDisabled(t *testing.T) {
	tasks := []trace.Task{{ID: 1, Submit: 0, Duration: 100, CPU: 0.1, Mem: 0.1, Priority: 0}}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  1000,
	}
	res, err := Run(failureConfig(tr, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.TasksKilled != 0 {
		t.Errorf("failures injected while disabled: %d/%d", res.Failures, res.TasksKilled)
	}
	if res.Completed != 1 {
		t.Errorf("completed = %d", res.Completed)
	}
}

func TestFailedMachineStaysDownThenRecovers(t *testing.T) {
	// One machine and one task that spans ten periods: a failure kills
	// the task and requeues it, the machine stays down for the repair,
	// then comes back and restarts the task, which completes.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 1000, CPU: 0.5, Mem: 0.5, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  20000,
	}
	res, err := Run(failureConfig(tr, 0.2)) // p(fail) per period ~ 0.14
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || res.TasksKilled == 0 || res.Completed != 1 {
		t.Errorf("failures=%d killed=%d completed=%d; want the task killed by a failure and then completed",
			res.Failures, res.TasksKilled, res.Completed)
	}
}
