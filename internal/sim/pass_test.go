package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// schedulePendingReference is the scheduling pass as it was before the
// dominance rule: every queued task gets a place attempt until the fail
// budget is spent, and survivors are copy-compacted. It is kept here as
// the oracle of schedulePending, the way lp's dense_test.go keeps the
// dense tableau.
func (e *engine) schedulePendingReference() {
	if e.pendingCount == 0 {
		return
	}
	for gi := trace.NumGroups - 1; gi >= 0; gi-- {
		for tt := range e.pending[gi] {
			q := e.pending[gi][tt]
			if len(q) == 0 {
				continue
			}
			fails := 0
			kept := q[:0]
			for qi, p := range q {
				if fails >= failBudgetPerQueue {
					kept = append(kept, q[qi:]...)
					break
				}
				if cpu, mem := e.reserved(&p); e.place(&p, cpu, mem) {
					e.pendingCount--
					continue
				}
				kept = append(kept, p)
				fails++
			}
			e.pending[gi][tt] = kept
		}
	}
}

// runWithPass is Run with the scheduling pass as a parameter: engine.run's
// event loop (arrival, completion, period boundary, in that tie order)
// around pass instead of e.schedulePending.
func runWithPass(t *testing.T, cfg Config, pass func(*engine)) (*Result, int) {
	t.Helper()
	if err := validateConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	cfg.applyDefaults()
	e := newEngine(cfg)
	var next trace.Task
	pull := func() bool {
		ok, err := cfg.Source.Next(&next)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	have := pull()
	for nextPeriod, periodIdx := 0.0, 0; ; {
		tArr, tFin := math.Inf(1), math.Inf(1)
		if have {
			tArr = next.Submit
		}
		if len(e.running) > 0 {
			tFin = e.running[0].finish
		}
		tEvt := min(tArr, tFin, nextPeriod)
		if tEvt > e.horizon {
			break
		}
		e.advanceTo(tEvt)
		switch tEvt {
		case nextPeriod:
			e.periodBoundary(periodIdx)
			pass(e)
			periodIdx++
			nextPeriod += cfg.Period
		case tFin:
			e.completeOne()
			pass(e)
		default:
			e.handleArrival(next)
			have = pull()
		}
	}
	e.advanceTo(e.horizon)
	e.finish(e.horizon)
	return e.res, e.placeAttempts
}

// wobblePolicy re-draws machine targets and, in CBS style, per-type
// quotas every period, over fixed container reservations.
type wobblePolicy struct {
	rng        *rand.Rand
	counts     []int
	types      int
	quotas     bool
	rcpu, rmem []float64
}

func (p *wobblePolicy) Name() string { return "wobble" }

func (p *wobblePolicy) Period(*Observation) Directive {
	d := Directive{TargetActive: make([]int, len(p.counts)), ReserveCPU: p.rcpu, ReserveMem: p.rmem, BestFit: p.quotas}
	for m, c := range p.counts {
		d.TargetActive[m] = c/4 + p.rng.Intn(c/2+1)
	}
	if p.quotas {
		d.Quota = make([][]int, len(p.counts))
		for m := range d.Quota {
			d.Quota[m] = make([]int, p.types)
			for n := range d.Quota[m] {
				d.Quota[m][n] = p.rng.Intn(12)
			}
		}
	}
	return d
}

// passScenario is one randomized overloaded run: few machines for the
// arrival rate, so queues back up and passes are mostly failures.
func passScenario(t *testing.T, seed int64, mutate func(*Config, *wobblePolicy)) Config {
	t.Helper()
	cfgTr := trace.DefaultConfig(seed)
	cfgTr.Horizon = 90 * 60
	cfgTr.RatePerS = 1.5
	cfgTr.Machines = []trace.MachineType{
		{ID: 1, Platform: "PF-A", CPU: 0.5, Mem: 0.5, Count: 12},
		{ID: 2, Platform: "PF-B", CPU: 1, Mem: 1, Count: 6},
	}
	for g := range cfgTr.Groups {
		cfgTr.Groups[g].ConstraintFrac = 0.2
	}
	tr, err := trace.Generate(cfgTr)
	if err != nil {
		t.Fatal(err)
	}
	pol := &wobblePolicy{rng: rand.New(rand.NewSource(seed)), counts: []int{12, 6}, types: 1}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   simModels(),
		Price:    energy.FlatPrice(0.1),
		Policy:   pol,
		Period:   300,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	mutate(&cfg, pol)
	return cfg
}

// TestSchedulePassMatchesReference: the dominance rule and the in-place
// compaction change what a pass costs, never what it decides. Randomized
// overloaded runs under every regime that reaches place — the baseline's
// single queue of mixed sizes, CBS-style reservations with quotas and
// best fit over several task types, constrained tasks (a fifth of the
// jobs), boot delay, failure injection — give the same Result as the
// attempt-everything reference pass, with fewer place attempts.
func TestSchedulePassMatchesReference(t *testing.T) {
	byPriority := func(cfg *Config, pol *wobblePolicy) {
		cfg.NumTypes = 4
		cfg.TypeOf = func(tk trace.Task) int { return tk.Priority % 4 }
		pol.types = 4
	}
	scenarios := map[string]func(*Config, *wobblePolicy){
		"baseline single queue": func(*Config, *wobblePolicy) {},
		"reservations and quotas": func(cfg *Config, pol *wobblePolicy) {
			byPriority(cfg, pol)
			pol.quotas = true
			pol.rcpu = []float64{0.05, 0.02, 0.1, 0.04}
			pol.rmem = []float64{0.04, 0.03, 0.08, 0.2}
		},
		"boot delay": func(cfg *Config, pol *wobblePolicy) {
			byPriority(cfg, pol)
			cfg.BootDelay = 120
		},
		"failures": func(cfg *Config, pol *wobblePolicy) {
			byPriority(cfg, pol)
			pol.quotas = true
			cfg.MTBFHours = 0.5
			cfg.RepairSeconds = 400
		},
	}
	for name, mutate := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				want, refAttempts := runWithPass(t, passScenario(t, seed, mutate), (*engine).schedulePendingReference)
				got, attempts := runWithPass(t, passScenario(t, seed, mutate), (*engine).schedulePending)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("result differs from the reference pass:\n got %+v\nwant %+v", got, want)
				}
				if want.Unscheduled == 0 || attempts >= refAttempts {
					t.Errorf("%d place attempts vs %d in the reference, %d tasks left queued: the scenario does not exercise the rule",
						attempts, refAttempts, want.Unscheduled)
				}
				t.Logf("%d place attempts, %d in the reference; %d scheduled, %d queued at the end, %d failures",
					attempts, refAttempts, want.Scheduled, want.Unscheduled, want.Failures)
				// The driver above is engine.run: same loop, same result.
				viaRun, err := Run(passScenario(t, seed, mutate))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(viaRun, got) {
					t.Error("runWithPass has drifted from engine.run")
				}
			})
		}
	}
}

// TestDominatedTasksSkipPlace is the cost contract of the dominance
// rule: a queue of equal unplaceable tasks costs one place attempt per
// pass, and the skipped ones are still charged to the fail budget — a
// placeable task behind 64 of them stays queued, exactly as when each
// failure was found by scanning the machines.
func TestDominatedTasksSkipPlace(t *testing.T) {
	tasks := make([]trace.Task, 100)
	for i := range tasks {
		tasks[i] = trace.Task{ID: uint64(i), Duration: 10, CPU: 2, Mem: 2} // larger than any machine
	}
	tasks[70].CPU, tasks[70].Mem = 0.1, 0.1
	for _, pass := range []struct {
		name     string
		run      func(*engine)
		attempts int
	}{
		{"reference", (*engine).schedulePendingReference, failBudgetPerQueue},
		{"dominance", (*engine).schedulePending, 1},
	} {
		e := backloggedEngine(t, tasks)
		pass.run(e)
		if e.placeAttempts != pass.attempts {
			t.Errorf("%s: %d place attempts in the pass, want %d", pass.name, e.placeAttempts, pass.attempts)
		}
		if q := e.pending[0][0]; e.pendingCount != 100 || len(q) != 100 || q[70].task.ID != 70 || e.res.Scheduled != 0 {
			t.Errorf("%s: %d tasks queued, %d scheduled: the fail budget let the pass reach task 70",
				pass.name, e.pendingCount, e.res.Scheduled)
		}
	}
	// Ahead of the budget the small task is reached and placed, and the
	// queue closes up around it in order.
	tasks[70], tasks[10] = tasks[10], tasks[70]
	e := backloggedEngine(t, tasks)
	e.schedulePending()
	if e.placeAttempts != 2 || e.res.Scheduled != 1 || len(e.pending[0][0]) != 99 {
		t.Fatalf("%d attempts, %d scheduled, %d queued; want 2, 1, 99", e.placeAttempts, e.res.Scheduled, len(e.pending[0][0]))
	}
	want := append(append([]trace.Task(nil), tasks[:10]...), tasks[11:]...)
	for i, p := range e.pending[0][0] {
		if p.task.ID != want[i].ID {
			t.Fatalf("queue slot %d holds task %d, want %d", i, p.task.ID, want[i].ID)
		}
	}
}
