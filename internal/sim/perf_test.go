package sim

import (
	"errors"
	"fmt"
	"math"
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
				e.advanceTo(e.running.next())
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
// and an out-of-order stream, or a task whose submit or duration would
// corrupt the run, is rejected with an error naming the task.
func TestRunSourceErrors(t *testing.T) {
	base := func() Config {
		return Config{
			Models:   simModels(),
			Price:    energy.FlatPrice(0.1),
			Policy:   &staticPolicy{name: "x", target: []int{2, 1}},
			Period:   300,
			NumTypes: 1,
			TypeOf:   func(trace.Task) int { return 0 },
		}
	}

	t.Run("failing source", func(t *testing.T) {
		cfg := base()
		cfg.Source = failAfterSource{n: 3}
		if _, err := Run(cfg); !errors.Is(err, errTestSource) {
			t.Fatalf("source error swallowed: Run returned %v", err)
		}
	})
	t.Run("out of order", func(t *testing.T) {
		cfg := base()
		cfg.Source = trace.NewSliceSource(&trace.Trace{
			Machines: simTrace(nil, 0).Machines,
			Horizon:  1000,
			Tasks: []trace.Task{
				{ID: 1, Submit: 500, Duration: 1, CPU: 0.1, Mem: 0.1},
				{ID: 2, Submit: 100, Duration: 1, CPU: 0.1, Mem: 0.1},
			},
		})
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "out of submit order") {
			t.Fatalf("out-of-order stream: Run returned %v", err)
		}
	})
	// A NaN submit used to give a NaN energy and switch the order check off
	// for the next task; a negative duration finished a task before it
	// started and moved the clock back. An oversized task is still accepted:
	// it never fits and stays queued.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		submit []float64
		dur    float64
		bad    int // index of the task the error names; -1: no error
	}{
		{"NaN submit", []float64{nan}, 1, 0},
		{"NaN submit between 10 and 3", []float64{10, nan, 3}, 1, 1},
		{"infinite submit", []float64{inf}, 1, 0},
		{"-Inf submit", []float64{-inf}, 1, 0},
		{"NaN duration", []float64{5}, nan, 0},
		{"negative duration", []float64{5}, -50, 0},
		{"infinite duration", []float64{5}, inf, 0},
		{"zero duration", []float64{5}, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &trace.Trace{
				Machines: simTrace(nil, 0).Machines,
				Horizon:  1000,
			}
			for i, s := range tc.submit {
				tr.Tasks = append(tr.Tasks, trace.Task{ID: uint64(7 + i), Submit: s, Duration: tc.dur, CPU: 0.1, Mem: 0.1})
			}
			cfg := base()
			cfg.Source = trace.NewSliceSource(tr)
			_, err := Run(cfg)
			if (tc.bad < 0) != (err == nil) {
				t.Fatalf("Run error %v, want an error: %v", err, tc.bad >= 0)
			}
			if name := fmt.Sprintf("task %d ", 7+tc.bad); err != nil && !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name %q", err, name)
			}
		})
	}
	t.Run("oversized task", func(t *testing.T) {
		cfg := base()
		cfg.Source = trace.NewSliceSource(&trace.Trace{
			Machines: simTrace(nil, 0).Machines,
			Horizon:  1000,
			Tasks:    []trace.Task{{ID: 1, Submit: 5, Duration: 1, CPU: 2, Mem: 2}},
		})
		res, err := Run(cfg)
		if err != nil || res.Unscheduled != 1 {
			t.Fatalf("oversized task: error %v, result %+v; want it accepted and left queued", err, res)
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
		Machines: simTrace(nil, 0).Machines,
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
