package sim

import (
	"math/rand"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// backloggedEngine is a powered two-type cluster with one task type's
// queue filled from tasks, none placed yet.
func backloggedEngine(t testing.TB, tasks []trace.Task) *engine {
	t.Helper()
	tr := &trace.Trace{
		Machines: []trace.MachineType{
			{ID: 1, Platform: "PF-A", CPU: 0.5, Mem: 0.5, Count: 600},
			{ID: 2, Platform: "PF-B", CPU: 1, Mem: 1, Count: 600},
		},
		Horizon: 1e9,
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   simModels(),
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "x", target: []int{600, 600}},
		Period:   300,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	if err := validateConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	powerAll(e)
	for _, tk := range tasks {
		gi := tk.Group().Index()
		e.pending[gi][0] = append(e.pending[gi][0], pendingTask{task: tk})
		e.pendingCount++
	}
	return e
}

// powerAll powers every machine of e on, ready at once.
func powerAll(e *engine) {
	for ti, mt := range e.types {
		e.setActive(ti, mt.Count)
	}
}

// BenchmarkSchedulePass times one scheduling pass over a backlogged
// queue that cannot drain (every machine is full in one dimension). The
// pass after a period boundary, which scans: tasks of one size, of
// mixed sizes (each failure dominates fewer of its successors), and
// constrained (the constraint splits the dominance classes). And
// after-completion, the pass the event loop runs once per finished task:
// the mixed-size queue, already tried, against one freed machine that is
// too small for any of it.
func BenchmarkSchedulePass(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	queue := func(size func(i int) (cpu, mem float64, constraint string)) []trace.Task {
		tasks := make([]trace.Task, 4096)
		for i := range tasks {
			cpu, mem, c := size(i)
			tasks[i] = trace.Task{ID: uint64(i), Duration: 10, CPU: cpu, Mem: mem, Constraint: c}
		}
		return tasks
	}
	mixed := queue(func(int) (float64, float64, string) { return 0.1 + 0.3*r.Float64(), 0.1 + 0.3*r.Float64(), "" })
	for _, bc := range []struct {
		name  string
		tasks []trace.Task
		// What the event loop did before the pass: a completion (on a
		// machine too small for the queue), else a period boundary.
		afterCompletion bool
	}{
		{"equal-size", queue(func(int) (float64, float64, string) { return 0.2, 0.2, "" }), false},
		{"mixed-size", mixed, false},
		{"constrained", queue(func(i int) (float64, float64, string) { return 0.2, 0.2, []string{"", "PF-A", "PF-B"}[i%3] }), false},
		{"after-completion", mixed, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := backloggedEngine(b, bc.tasks)
			// No queued task fits anywhere: every other machine is out of
			// CPU, the rest out of memory, so a place attempt scans every
			// machine, as on a fragmented cluster.
			for mi := range e.machines {
				m := &e.machines[mi]
				mt := e.types[m.typeIdx]
				m.usedCPU, m.usedMem, m.tasks = mt.CPU-0.05, 0, 1
				if mi%2 == 1 {
					m.usedCPU, m.usedMem = 0, mt.Mem-0.05
				}
			}
			refitAll(e)
			e.schedulePending()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.afterCompletion {
					e.freed = i % len(e.machines)
				} else {
					e.forgetTried()
				}
				e.schedulePending()
			}
			if e.res.Scheduled != 0 {
				b.Fatal("the backlog drained")
			}
		})
	}
}
