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
// around pass instead of e.schedulePending. It returns the engine after
// the run, its Result and cost counters. After every event it checks that
// the fit trees match the machines.
func runWithPass(t *testing.T, cfg Config, pass func(*engine)) *engine {
	t.Helper()
	if err := validateConfig(&cfg); err != nil {
		t.Fatal(err)
	}
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
		tArr, tFin := math.Inf(1), e.running.next()
		if have {
			tArr = next.Submit
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
		if ti := staleFitTree(e); ti >= 0 {
			t.Fatalf("t=%g: type %d's fit tree does not match its machines", tEvt, ti)
		}
	}
	e.advanceTo(e.horizon)
	e.finish(e.horizon)
	return e
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

// TestSchedulePassMatchesReference: the dominance rule, the tried runs
// carried from pass to pass and the in-place compaction change what a pass
// costs, never what it decides. Randomized overloaded runs under every
// regime that reaches place — the baseline's single queue of mixed sizes,
// CBS-style reservations with quotas and best fit over several task
// types, constrained tasks (a fifth of the jobs), boot delay, failure
// injection — and under everything that can make a task that failed once
// placeable again — a completion, a quota cell opening, machines coming
// out of boot (readyAt) or out of repair (downTil) in the middle of a
// period, occupancy relabeled at the boundary — give the same Result as
// the attempt-everything reference pass, with fewer place attempts.
func TestSchedulePassMatchesReference(t *testing.T) {
	byPriority := func(cfg *Config, pol *wobblePolicy) {
		cfg.NumTypes = 4
		cfg.TypeOf = func(tk trace.Task) int { return tk.Priority % 4 }
		pol.types = 4
	}
	// Failures are drawn at period boundaries and repair takes
	// repairSeconds (900 s); a 400 s period does not divide it, so a failed
	// machine comes out of repair in the middle of a period.
	failures := func(cfg *Config, pol *wobblePolicy) {
		byPriority(cfg, pol)
		pol.quotas = true
		cfg.Period = 400
		cfg.MTBFHours = 0.5
	}
	bootFailuresQuotas := func(cfg *Config, pol *wobblePolicy) {
		failures(cfg, pol)
		cfg.BootDelay = 130
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
		"failures": failures,
		// A machine that fails and is powered on again accepts tasks from
		// max(readyAt, downTil): the end of its boot in the first scenario,
		// of its repair in the second. Repair is fixed, so the boot delay
		// sets the order.
		"boot, failures, quotas, repair shorter than boot": func(cfg *Config, pol *wobblePolicy) {
			bootFailuresQuotas(cfg, pol)
			cfg.BootDelay = 950
		},
		"boot, failures, quotas, repair longer than boot": func(cfg *Config, pol *wobblePolicy) {
			bootFailuresQuotas(cfg, pol)
		},
		"relabel moves quota occupancy": func(cfg *Config, pol *wobblePolicy) {
			byPriority(cfg, pol)
			pol.quotas = true
			cfg.Relabel = func(current int, age float64) int {
				if age > 400 {
					return (current + 1) % 4
				}
				return current
			}
		},
	}
	for name, mutate := range scenarios {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				ref := runWithPass(t, passScenario(t, seed, mutate), (*engine).schedulePendingReference)
				e := runWithPass(t, passScenario(t, seed, mutate), (*engine).schedulePending)
				want, refAttempts, got, attempts := ref.res, ref.placeAttempts, e.res, e.placeAttempts
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

// fullCluster is backloggedEngine with every machine out of CPU and
// memory, except that machine mi runs one task per entry of running[mi]
// (its reserved CPU = memory, finishing at the given time) and is full
// beside them: each completion frees exactly that task's share.
func fullCluster(t *testing.T, queued []trace.Task, running map[int][]runningTask) *engine {
	t.Helper()
	e := backloggedEngine(t, queued)
	for mi := range e.machines {
		m := &e.machines[mi]
		mt := e.types[m.typeIdx]
		m.usedCPU, m.usedMem, m.tasks = mt.CPU, mt.Mem, 1
		for _, rt := range running[mi] {
			m.usedCPU -= rt.cpu
			m.usedMem -= rt.cpu
		}
		e.refit(mi)
		for _, rt := range running[mi] {
			e.start(&pendingTask{task: trace.Task{Duration: rt.finish}}, mi, rt.cpu, rt.cpu)
		}
	}
	e.res.Scheduled = 0
	return e
}

// TestTriedRunMeetsOnlyTheFreedMachine is the cost contract of the tried
// runs: once a full pass has failed a queue's tasks, the pass after a
// completion tests them against the machine that completion freed and
// nothing else; only a task behind the run, a period boundary or a
// machine coming out of boot buys machine scans again.
func TestTriedRunMeetsOnlyTheFreedMachine(t *testing.T) {
	sizes := []float64{0.4, 0.45, 0.3, 0.35, 0.4, 0.45, 0.35, 0.4}
	tasks := make([]trace.Task, len(sizes))
	for i, s := range sizes {
		tasks[i] = trace.Task{ID: uint64(i), Duration: 1000, CPU: s, Mem: s}
	}
	const tooSmall, behindRun, roomForOne, afterBoundary, afterBoot, booting = 5, 6, 607, 8, 9, 610
	e := fullCluster(t, tasks, map[int][]runningTask{
		tooSmall:      {{finish: 10, cpu: 0.05}},
		behindRun:     {{finish: 15, cpu: 0.05}},
		roomForOne:    {{finish: 20, cpu: 0.3}},
		afterBoundary: {{finish: 350, cpu: 0.05}},
		afterBoot:     {{finish: 410, cpu: 0.05}},
	})
	// One idle machine that is still booting: room for several queued
	// tasks, from t = 400.
	e.machines[booting].usedCPU, e.machines[booting].usedMem, e.machines[booting].tasks = 0, 0, 0
	e.machines[booting].readyAt = 400
	e.refit(booting)
	queue := func() []pendingTask { return e.pending[0][0] }
	// pass runs the scheduling pass the event loop runs at time at — after
	// the completion due then, or after the period boundary — and returns
	// the machine scans it cost.
	pass := func(at float64, boundary bool) int {
		t.Helper()
		before := e.placeAttempts
		e.advanceTo(at)
		if boundary {
			e.periodBoundary(1)
		} else {
			if e.running.next() != at {
				t.Fatalf("next completion at %g, want %g", e.running.next(), at)
			}
			e.completeOne()
		}
		e.schedulePending()
		return e.placeAttempts - before
	}

	e.schedulePending()
	fullPass := e.placeAttempts
	if fullPass == 0 || len(queue()) != len(tasks) || e.res.Scheduled != 0 {
		t.Fatalf("first pass: %d scans, %d queued, %d scheduled; want every task scanned or dominated, and queued",
			fullPass, len(queue()), e.res.Scheduled)
	}
	if scans := pass(10, false); scans != 0 || len(queue()) != len(tasks) || queue()[0].task.ID != 0 {
		t.Errorf("completion on a machine too small for any queued task: %d scans, %d queued; want 0 scans and the queue untouched",
			scans, len(queue()))
	}
	e.handleArrival(trace.Task{ID: 100, Submit: 12, Duration: 1000, CPU: 0.25, Mem: 0.25})
	if scans := pass(15, false); scans != 1 || len(queue()) != len(tasks)+1 {
		t.Errorf("a task behind the tried run: %d scans, %d queued; want 1 scan, for that task, and none placed", scans, len(queue()))
	}
	if scans := pass(20, false); scans != 0 || e.res.Scheduled != 1 || len(queue()) != len(tasks) || queue()[2].task.ID != 3 {
		t.Errorf("completion freeing room for task 2 alone: %d scans, %d scheduled, %d queued; want 0, 1 and task 2 gone",
			scans, e.res.Scheduled, len(queue()))
	}
	if m := e.machines[roomForOne]; m.tasks != 2 || m.usedCPU != 1 {
		t.Errorf("task 2 did not start on the freed machine: %+v", m)
	}
	// A scan per new minimum of the queued sizes: 0.4, 0.35 and 0.25 now,
	// 0.4 and 0.3 in the first pass.
	if scans := pass(300, true); scans != fullPass+1 || e.res.Scheduled != 1 {
		t.Errorf("period boundary: %d scans, %d scheduled; want a full pass (%d scans) that places nothing",
			scans, e.res.Scheduled, fullPass+1)
	}
	if scans := pass(350, false); scans != 0 || e.res.Scheduled != 1 {
		t.Errorf("completion before the booting machine is ready: %d scans, %d scheduled; want 0 and 1", scans, e.res.Scheduled)
	}
	if scans := pass(410, false); scans == 0 || e.machines[booting].tasks == 0 {
		t.Errorf("first completion after the booting machine became ready: %d scans, %d tasks on it; want a full pass that uses it",
			scans, e.machines[booting].tasks)
	}

	// An arrival that finds its queue empty and fails is scanned once, by
	// handleArrival, and not again by the pass that follows.
	e = fullCluster(t, nil, map[int][]runningTask{tooSmall: {{finish: 10, cpu: 0.05}}})
	e.handleArrival(tasks[0])
	if scans := pass(10, false); e.placeAttempts != 1 || scans != 0 || len(queue()) != 1 {
		t.Errorf("arrival on an empty queue, then a completion too small for it: %d scans in all, %d in the pass, %d queued; want 1, 0, 1",
			e.placeAttempts, scans, len(queue()))
	}
}

// TestOpenedQuotaCellEndsTriedRun: a completion that takes a quota cell
// from full to not full opens every machine of that type to the task
// type, not just the one it freed, so the queues of that type get the
// full pass: here the freed machine stays too small for the queued task
// and first fit starts it on the next one.
func TestOpenedQuotaCellEndsTriedRun(t *testing.T) {
	e := backloggedEngine(t, []trace.Task{{ID: 1, Duration: 10, CPU: 0.3, Mem: 0.3}})
	e.quota = [][]int{{1}, {0}}
	e.machines[0].usedCPU, e.machines[0].usedMem, e.machines[0].tasks = 0.4, 0.4, 1
	e.refit(0)
	e.start(&pendingTask{task: trace.Task{Duration: 10}}, 0, 0.1, 0.1)
	e.schedulePending()
	if tr := e.tried[0][0]; e.res.Scheduled != 1 || tr.n != 1 {
		t.Fatalf("first pass under a full quota cell: %d scheduled, tried run %+v; want the task failed and tried", e.res.Scheduled-1, tr)
	}
	e.advanceTo(10)
	e.completeOne()
	e.schedulePending()
	if len(e.pending[0][0]) != 0 || e.machines[1].tasks != 1 {
		t.Errorf("after the cell opened: %d queued, %d tasks on machine 1; want the task started there",
			len(e.pending[0][0]), e.machines[1].tasks)
	}
}

// feedbackPolicy sizes the fleet the way the oblivious baseline does: it
// powers machines, in type order, for the CPU demand it sees running and
// queued at 80 % utilization, knowing nothing of what the queued tasks fit.
type feedbackPolicy struct{ machines []trace.MachineType }

func (p *feedbackPolicy) Name() string { return "feedback" }

func (p *feedbackPolicy) Period(obs *Observation) Directive {
	need := (obs.RunningDemandCPU + obs.QueuedDemandCPU) / 0.8
	target := make([]int, len(p.machines))
	for ti, mt := range p.machines {
		for target[ti] < mt.Count && need > 0 {
			target[ti]++
			need -= mt.CPU
		}
	}
	return Directive{TargetActive: target}
}

// TestBaselineFleetScansAboutOncePerTask bounds what the benchmark's
// sim_baseline_fleet regime costs in place calls and fit-tree visits, on
// that scenario scaled down 20 times (Table II / 20, 0.15 tasks/s, 13 h,
// one first-fit FIFO queue per priority under a reactive policy): a task
// is placed when it arrives or is first reached behind its queue's tried
// run, and after that meets freed machines one at a time, so the run pays
// about one place per task where the attempt-everything pass pays
// several; and a place descends its types' fit trees instead of scanning
// their machines.
func TestBaselineFleetScansAboutOncePerTask(t *testing.T) {
	models, machines := energy.TableIIScaled(20)
	config := func() Config {
		cfgTr := trace.DefaultConfig(1)
		cfgTr.Horizon = 13 * trace.Hour
		cfgTr.RatePerS = 0.15
		cfgTr.Machines = machines
		tr, err := trace.Generate(cfgTr)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Source:    trace.NewSliceSource(tr),
			Models:    models,
			Price:     energy.FlatPrice(0.1),
			Policy:    &feedbackPolicy{machines},
			Period:    300,
			NumTypes:  1,
			TypeOf:    func(trace.Task) int { return 0 },
			BootDelay: 120,
		}
	}
	ref := runWithPass(t, config(), (*engine).schedulePendingReference)
	e := runWithPass(t, config(), (*engine).schedulePending)
	if !reflect.DeepEqual(ref.res, e.res) {
		t.Fatal("result differs from the reference pass")
	}
	tasks := e.res.Scheduled + e.res.Unscheduled
	scans, refScans := e.placeAttempts, ref.placeAttempts
	perPlace := float64(e.fitVisits) / float64(scans)
	t.Logf("%d tasks (%d left queued): %d place calls, %d in the reference pass; %d fit-tree node visits (%.1f per place), where scans would have visited %d machines (%.1f per place)",
		tasks, e.res.Unscheduled, scans, refScans, e.fitVisits, perPlace, e.scanVisits, float64(e.scanVisits)/float64(scans))
	if float64(scans) > 1.25*float64(tasks) {
		t.Errorf("%d place calls for %d tasks: more than 1.25 per task", scans, tasks)
	}
	if refScans < 3*scans {
		t.Errorf("the reference pass placed %d times, the pass %d: the scenario does not back its queues up", refScans, scans)
	}
	if perPlace > fitVisitsPerPlace {
		t.Errorf("%.1f fit-tree node visits per place, want at most %d", perPlace, fitVisitsPerPlace)
	}
}

// fitVisitsPerPlace bounds TestBaselineFleetScansAboutOncePerTask's
// fit-tree node visits per place call: 10.0 measured, over 6.8 machines a
// scan would visit at this scale, where the first fitting machine comes
// early in types of 25 to 350 machines. On the full-scale scenario a place
// visits 58 nodes where a scan visited 244 machines.
const fitVisitsPerPlace = 12
