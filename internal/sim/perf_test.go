package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// steadyEngine builds a small powered-up engine and warms every scratch
// structure: queues, the finish heap, delay reservoirs, and the CDF
// backing arrays, so the alloc measurement sees only steady-state work.
func steadyEngine(t *testing.T, maxDelaySamples int) *engine {
	t.Helper()
	tr := &trace.Trace{
		Machines: []trace.MachineType{
			{ID: 1, CPU: 0.5, Mem: 0.5, Count: 600},
			{ID: 2, CPU: 1, Mem: 1, Count: 600},
		},
		Horizon: 1e9,
	}
	cfg := Config{
		Source:          trace.NewSliceSource(tr),
		Models:          simModels(),
		Price:           energy.FlatPrice(0.1),
		Policy:          &staticPolicy{name: "x", target: []int{600, 600}},
		Period:          300,
		NumTypes:        1,
		TypeOf:          func(trace.Task) int { return 0 },
		MaxDelaySamples: maxDelaySamples,
	}
	if err := validateConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	e := newEngine(cfg)
	powerAll(e)
	return e
}

// The steady-state event path — arrival, placement, heap push, energy
// integration, completion, heap pop — must not allocate. This is the
// dynamic half of the //harmony:hotpath contract the hotpathalloc
// analyzer enforces statically: at 25M tasks, even one small allocation
// per event is gigabytes of garbage.
func TestEventLoopSteadyStateAllocFree(t *testing.T) {
	for _, backlog := range []int{0, 100} {
		t.Run(fmt.Sprintf("%d queued", backlog), func(t *testing.T) {
			e := steadyEngine(t, 256)
			// The backlog waits for a platform the cluster does not have: each
			// pass walks its queue's tried run against the freed machine (the
			// tasks are small enough for it) and keeps all of it.
			for i := 0; i < backlog; i++ {
				e.handleArrival(trace.Task{ID: uint64(2 + i), Duration: 10, CPU: 0.05, Mem: 0.05, Constraint: "PF-none"})
			}
			task := trace.Task{ID: 1, Submit: 0, Duration: 10, CPU: 0.1, Mem: 0.1, Priority: 9}
			cycle := func() {
				e.advanceTo(e.now + 1)
				task.Submit = e.now
				e.handleArrival(task)
				e.advanceTo(e.running[0].finish)
				e.completeOne()
				e.schedulePending()
			}

			// Warm-up: fill the reservoirs past capacity and grow the heap and
			// queue backing arrays to their steady size.
			for i := 0; i < 1024; i++ {
				cycle()
			}
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < 16; i++ {
					cycle()
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state event loop allocates %.1f objects per run, want 0", allocs)
			}
			if e.pendingCount != backlog || e.res.Completed == 0 {
				t.Errorf("%d tasks queued, %d completed: the loop did not run over the backlog of %d", e.pendingCount, e.res.Completed, backlog)
			}
		})
	}
}

// The typed finish heap must order identically to container/heap's
// sift rules: pops come out in finish order, ties broken by heap
// mechanics, and interleaved push/pop keeps the min at the root.
func TestFinishHeapOrdering(t *testing.T) {
	var h finishHeap
	finishes := []float64{9, 3, 7, 3, 1, 8, 2, 5, 4, 6, 0, 3}
	for i, f := range finishes {
		h.push(runningTask{finish: f, machine: i})
	}
	prev := -1.0
	for len(h) > 0 {
		if h[0].finish != h.minFinish() {
			t.Fatal("root is not the minimum")
		}
		rt := h.pop()
		if rt.finish < prev {
			t.Fatalf("pop order violated: %g after %g", rt.finish, prev)
		}
		prev = rt.finish
	}
}

func (h finishHeap) minFinish() float64 {
	min := h[0].finish
	for _, rt := range h {
		if rt.finish < min {
			min = rt.finish
		}
	}
	return min
}

// MaxDelaySamples bounds delay-CDF memory without changing any other
// measurement: energy, series, and counters must be bit-identical to the
// exact run, and the retained sample count must respect the cap.
func TestMaxDelaySamplesBoundsMemoryOnly(t *testing.T) {
	exactCfg := genFailureConfig(t, 17)
	exact, err := Run(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	capped := genFailureConfig(t, 17)
	capped.MaxDelaySamples = 64
	got, err := Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range trace.Groups() {
		if n := got.DelayByGroup[g].Len(); n > 64 {
			t.Errorf("group %s retained %d delay samples, cap is 64", g, n)
		}
		if exactN := exact.DelayByGroup[g].Len(); exactN > 64 &&
			got.DelayByGroup[g].Len() != 64 {
			t.Errorf("group %s: reservoir holds %d of cap 64 despite %d samples seen",
				g, got.DelayByGroup[g].Len(), exactN)
		}
	}
	// Everything except the delay CDFs is untouched by sampling.
	exact.DelayByGroup, got.DelayByGroup = nil, nil
	if !reflect.DeepEqual(exact, got) {
		t.Error("MaxDelaySamples changed measurements beyond the delay CDFs")
	}
}

// A source error surfaces as a Run error rather than a silent truncation,
// and an out-of-order stream is rejected.
func TestRunSourceErrors(t *testing.T) {
	base := func() Config {
		return Config{
			Models:   simModels(),
			Price:    energy.FlatPrice(0.1),
			Policy:   &staticPolicy{name: "x", target: []int{5}},
			Period:   300,
			NumTypes: 1,
			TypeOf:   func(trace.Task) int { return 0 },
		}
	}

	t.Run("failing source", func(t *testing.T) {
		cfg := base()
		cfg.Source = failAfterSource{n: 3}
		if _, err := Run(cfg); err == nil {
			t.Fatal("source error swallowed")
		}
	})
	t.Run("out of order", func(t *testing.T) {
		cfg := base()
		cfg.Source = trace.NewSliceSource(&trace.Trace{
			Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 5}},
			Horizon:  1000,
			Tasks: []trace.Task{
				{ID: 1, Submit: 500, Duration: 1, CPU: 0.1, Mem: 0.1},
				{ID: 2, Submit: 100, Duration: 1, CPU: 0.1, Mem: 0.1},
			},
		})
		if _, err := Run(cfg); err == nil {
			t.Fatal("out-of-order stream accepted")
		}
	})
	t.Run("no source", func(t *testing.T) {
		_, err := Run(base())
		if err == nil {
			t.Fatal("config without a source accepted")
		}
		if msg := err.Error(); !strings.Contains(msg, "source") || strings.Contains(msg, "trace") {
			t.Errorf("error %q should name the missing source, not a trace", msg)
		}
	})
}

// failAfterSource emits n tasks, then fails.
type failAfterSource struct{ n int }

func (s failAfterSource) Meta() trace.Meta {
	return trace.Meta{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 5}},
		Horizon:  1000,
		Tasks:    trace.TasksUnknown,
	}
}

func (s failAfterSource) Next(t *trace.Task) (bool, error) {
	// Value receiver keeps no state; fail immediately to exercise the
	// error path deterministically.
	return false, errTestSource
}

var errTestSource = errors.New("sim test: source failure")
