// Package sim is a discrete-event cluster simulator: machines with
// heterogeneous capacities and power curves execute a task trace under a
// pluggable provisioning policy. It measures everything the paper's
// evaluation reports — per-priority scheduling-delay CDFs, active-machine
// series, and total energy/cost — and is the substrate for Figures 3-4 and
// 19-26.
//
// The engine consumes its workload through trace.TaskSource, so a
// trace-scale run (the Google trace is 25M tasks over 29 days) streams
// through with peak memory proportional to live tasks plus machines, not
// trace length. The steady-state event path — arrival, placement,
// completion — is allocation-free and statically enforced by
// harmony-lint's hotpathalloc analyzer via the //harmony:hotpath roots
// below.
package sim

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/energy"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// Directive is a policy's decision for one control period.
type Directive struct {
	// TargetActive[m] is the desired number of powered machines per
	// machine type. Values are clamped to [0, available]; machines
	// currently running tasks are never powered off.
	TargetActive []int
	// Quota[m][n], when non-nil, caps the number of type-n tasks
	// concurrently running on type-m machines (the x^{mn}_t limits).
	Quota [][]int
	// ReserveCPU/ReserveMem, when non-nil, give per-task-type container
	// reservations: a task occupies max(task demand, reservation) on its
	// machine. This is how CBS's container-based scheduling is realized.
	ReserveCPU []float64
	ReserveMem []float64
	// BestFit selects best-fit placement within a machine type instead
	// of the default legacy first-fit. The HARMONY policies coordinate
	// with the scheduler and request it; the oblivious baseline keeps
	// the cluster's legacy first-fit.
	BestFit bool
}

// Observation is the state snapshot handed to a policy at each period.
type Observation struct {
	Time        float64
	PeriodIndex int
	// Arrivals[n] counts type-n tasks that arrived during the last period.
	Arrivals []int
	// Queued[n] counts type-n tasks currently waiting.
	Queued []int
	// Running[n] counts type-n tasks currently executing.
	Running []int
	// QueuedDemandCPU/Mem are the total resource demands of the queue.
	QueuedDemandCPU, QueuedDemandMem float64
	// RunningDemandCPU/Mem are the total demands of executing tasks.
	RunningDemandCPU, RunningDemandMem float64
	// Active[m] is the number of powered machines per machine type.
	Active []int
	// Price is the current electricity price ($/kWh).
	Price float64
}

// Policy decides machine counts (and optionally quotas) each period.
type Policy interface {
	Name() string
	Period(obs *Observation) Directive
}

// Config parameterizes a simulation run.
type Config struct {
	// Source yields the workload in submit order; machines and horizon
	// come from Source.Meta(). A streaming source keeps peak memory
	// independent of trace length; trace.NewSliceSource wraps a
	// materialized trace.
	Source trace.TaskSource

	Models []energy.Model // one per machine type, same order as the machine population
	Price  energy.Price
	Policy Policy
	Period float64 // control-period length in seconds
	// NumTypes and TypeOf map tasks to dense task-type indices for
	// quota accounting and per-type arrival statistics.
	NumTypes int
	TypeOf   func(trace.Task) int
	// SwitchCost[m] is the dollar cost per on/off transition of a
	// type-m machine. Optional. Every machine starts powered off.
	SwitchCost []float64
	// BootDelay is how long a powered-on machine takes before it can
	// accept tasks (seconds). It draws idle power while booting. 0 means
	// instant boot.
	BootDelay float64
	// MTBFHours, when positive, injects machine failures: each powered
	// machine fails independently with the matching per-period
	// probability. A failed machine kills its running tasks (they are
	// requeued and restart from scratch) and stays unavailable for
	// repairSeconds. The failure draws come from one fixed seed.
	MTBFHours float64
	// Relabel, when non-nil, is called at each period boundary for every
	// running task with its current type and age (seconds since start);
	// the returned type replaces the current one. This realizes the
	// paper's short-first labeling: tasks that outlive their short
	// sub-class boundary are upgraded to the long sub-class, so quota
	// and demand accounting track reality.
	Relabel func(current int, age float64) int
	// MaxDelaySamples, when positive, bounds the per-priority-group
	// scheduling-delay sample retained for the delay CDFs using
	// deterministic reservoir sampling (seeded per group). 0 keeps every
	// sample — exact, but O(total tasks) memory, which a 25M-task run
	// cannot afford.
	MaxDelaySamples int
}

// Result aggregates everything measured during a run.
type Result struct {
	Policy string

	// DelayByGroup holds the scheduling-delay CDF per priority group
	// (Figure 4 and Figures 23-25). With Config.MaxDelaySamples set it
	// holds a uniform reservoir sample of the delays instead of every
	// sample.
	DelayByGroup map[trace.PriorityGroup]*stats.CDF
	// ActiveSeries is the total powered machines at each period start
	// (Figures 21-22).
	ActiveSeries stats.Series
	// ActiveByType[m] is the per-type powered count at each period.
	ActiveByType []stats.Series
	// UsedSeries is the number of machines running at least one task at
	// each period start (Figure 3's "used" curve).
	UsedSeries stats.Series
	// QueueSeries is the queue length at each period start.
	QueueSeries stats.Series

	EnergyKWh    float64
	EnergyCost   float64 // dollars (Eq. 7 integrated over the run)
	SwitchCost   float64 // dollars
	SwitchEvents int

	// Failures counts injected machine failures; TasksKilled counts the
	// task executions they aborted (the tasks requeue and restart).
	Failures    int
	TasksKilled int

	Scheduled   int // tasks that started execution
	Unscheduled int // tasks still queued when the horizon ended
	Completed   int
}

// MeanDelay returns the mean scheduling delay of a group, or 0.
func (r *Result) MeanDelay(g trace.PriorityGroup) float64 {
	c := r.DelayByGroup[g]
	if c == nil || c.Len() == 0 {
		return 0
	}
	// Mean over quantiles is exact for an empirical CDF sampled at its
	// own points; use the underlying points via Quantile at k/n.
	n := c.Len()
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += c.Quantile(float64(i) / float64(n))
	}
	return sum / float64(n)
}

type machine struct {
	typeIdx int
	on      bool
	readyAt float64 // machine accepts tasks from this time (boot delay)
	downTil float64 // failed machine is unavailable until this time
	epoch   int     // incremented on failure to invalidate heap entries
	usedCPU float64
	usedMem float64
	tasks   int
}

type runningTask struct {
	finish   float64
	start    float64
	machine  int
	epoch    int // machine epoch at placement; stale entries are ignored
	taskType int
	task     trace.Task
	cpu, mem float64 // reserved amounts on the machine
}

// finishKey is one finish-heap entry: a running task's finish time and
// its slot in the heap's slab.
type finishKey struct {
	finish float64
	slot   int32
}

// finishHeap is a typed binary min-heap on finish time. The sift
// routines mirror container/heap exactly (same comparison and swap
// order), so tasks pop in the order of the boxed implementation it
// replaces. It sifts 16-byte keys; the tasks stay put in a slab whose
// free slots are reused, so push and pop are monomorphic and, once the
// slab has grown to the peak running count, allocation-free.
type finishHeap struct {
	keys []finishKey
	slab []runningTask
	free []int32 // slab slots no key refers to
}

// next returns the earliest finish time, +Inf when nothing runs.
func (h *finishHeap) next() float64 {
	if len(h.keys) == 0 {
		return math.Inf(1)
	}
	return h.keys[0].finish
}

// at returns the i-th task in heap order.
func (h *finishHeap) at(i int) *runningTask { return &h.slab[h.keys[i].slot] }

//harmony:hotpath
func (h *finishHeap) push(rt runningTask) {
	var slot int32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.slab[slot] = rt
	} else {
		slot = int32(len(h.slab))
		h.slab = append(h.slab, rt)
	}
	h.keys = append(h.keys, finishKey{rt.finish, slot})
	siftUp(h.keys, len(h.keys)-1)
}

// pop removes the task that finishes first. The task stays valid until
// the next push.
//
//harmony:hotpath
func (h *finishHeap) pop() *runningTask {
	keys := h.keys
	n := len(keys) - 1
	keys[0], keys[n] = keys[n], keys[0]
	siftDown(keys, 0, n)
	slot := keys[n].slot
	h.keys = keys[:n]
	h.free = append(h.free, slot)
	return &h.slab[slot]
}

func siftUp(h []finishKey, j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[i].finish <= h[j].finish {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func siftDown(h []finishKey, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			return
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].finish < h[j1].finish {
			j = j2 // right child
		}
		if h[j].finish >= h[i].finish {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

type pendingTask struct {
	task     trace.Task
	taskType int
}

// failBudgetPerQueue bounds how many placement failures are tolerated
// per task-type queue in one scheduling pass before the rest of that
// queue is skipped. It models a scheduler that skips
// currently-unschedulable tasks rather than blocking on them.
const failBudgetPerQueue = 64

// repairSeconds is how long a failed machine stays down, and failureSeed
// seeds the failure process.
const (
	repairSeconds = 900
	failureSeed   = 1
)

// engine is the mutable simulation state.
type engine struct {
	cfg Config

	types   []trace.MachineType
	horizon float64

	machines  []machine
	typeFirst []int     // first machine id per type (ids are contiguous per type)
	active    []int     // powered count per type
	fit       []fitTree // per type: usage bounds of its powered machines

	// pending[group][taskType] is a FIFO queue; scheduling scans groups
	// in descending priority, then types, so a stuck type cannot block
	// the others.
	pending                [trace.NumGroups][][]pendingTask
	pendingCount           int
	running                finishHeap
	quota                  [][]int // current directive quotas (nil = unlimited)
	bestFit                bool
	occupancy              [][]int // running tasks per (machineType, taskType)
	reserveCPU, reserveMem []float64

	arrivals []int // per type, this period
	runningN []int // per type

	now        float64
	lastEnergy float64 // time up to which energy is integrated
	sumUsedCPU []float64
	sumUsedMem []float64

	failRand *stats.RNG

	// failed is schedulePending's scratch: the shapes that failed in the
	// queue being walked (at most the fail budget). placeAttempts counts
	// place calls over the run, fitVisits the fit-tree nodes they visited
	// and scanVisits the machines a scan of each type would have visited
	// (cost contracts of the dominance rule, the tried runs and the fit
	// trees).
	failed        []failedShape
	placeAttempts int
	fitVisits     int
	scanVisits    int

	// What the next scheduling pass may assume of the last one: tried
	// mirrors pending, freed is the machine the completion just before the
	// pass released capacity on (-1: nothing was freed), and nextReady is
	// the earliest instant after now at which a powered machine finishes
	// booting or repair (+Inf: every powered machine is ready).
	tried     [trace.NumGroups][]triedRun
	freed     int
	nextReady float64

	// delayRes, when non-nil per group, reservoir-samples scheduling
	// delays instead of retaining all of them.
	delayRes [trace.NumGroups]*stats.Reservoir

	res *Result
}

// Run executes the simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.res, nil
}

func validateConfig(cfg *Config) error {
	if cfg.Source == nil {
		return errors.New("sim: missing task source")
	}
	machines := cfg.Source.Meta().Machines
	if len(machines) == 0 {
		return errors.New("sim: task source declares no machines")
	}
	if len(cfg.Models) != len(machines) {
		return fmt.Errorf("sim: %d energy models for %d machine types",
			len(cfg.Models), len(machines))
	}
	if cfg.Price == nil {
		return errors.New("sim: missing price")
	}
	if cfg.Policy == nil {
		return errors.New("sim: missing policy")
	}
	// NaN fails every comparison and +Inf passes "> 0": with either the
	// event loop never reaches the next boundary, or the horizon.
	if !(cfg.Period > 0) || math.IsInf(cfg.Period, 1) {
		return fmt.Errorf("sim: period must be positive and finite, got %v", cfg.Period)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"boot delay", cfg.BootDelay}, {"MTBF", cfg.MTBFHours}} {
		if !(f.v >= 0) {
			return fmt.Errorf("sim: %s must not be negative or NaN, got %v", f.name, f.v)
		}
	}
	if cfg.NumTypes <= 0 || cfg.TypeOf == nil {
		return errors.New("sim: task-type mapping required")
	}
	if cfg.SwitchCost != nil && len(cfg.SwitchCost) != len(machines) {
		return errors.New("sim: switch-cost length mismatch")
	}
	return nil
}

func newEngine(cfg Config) *engine {
	meta := cfg.Source.Meta()
	nm := len(meta.Machines)
	e := &engine{
		cfg:        cfg,
		types:      meta.Machines,
		horizon:    meta.Horizon,
		active:     make([]int, nm),
		typeFirst:  make([]int, nm),
		fit:        make([]fitTree, nm),
		arrivals:   make([]int, cfg.NumTypes),
		runningN:   make([]int, cfg.NumTypes),
		sumUsedCPU: make([]float64, nm),
		sumUsedMem: make([]float64, nm),
		occupancy:  make([][]int, nm),
		failed:     make([]failedShape, 0, failBudgetPerQueue),
		freed:      -1,
		nextReady:  math.Inf(1),
		res: &Result{
			Policy:       cfg.Policy.Name(),
			DelayByGroup: make(map[trace.PriorityGroup]*stats.CDF, trace.NumGroups),
			ActiveByType: make([]stats.Series, nm),
		},
	}
	for _, g := range trace.Groups() {
		e.res.DelayByGroup[g] = &stats.CDF{}
		if cfg.MaxDelaySamples > 0 {
			// Seeded per group so the retained sample is deterministic
			// and independent of the other groups' arrival interleaving.
			e.delayRes[g.Index()] = stats.NewReservoir(cfg.MaxDelaySamples, int64(g.Index()+1))
		}
	}
	for gi := range e.pending {
		e.pending[gi] = make([][]pendingTask, cfg.NumTypes)
		e.tried[gi] = make([]triedRun, cfg.NumTypes)
	}
	if cfg.MTBFHours > 0 {
		e.failRand = stats.NewRNG(failureSeed)
	}
	for ti, mt := range e.types {
		e.occupancy[ti] = make([]int, cfg.NumTypes)
		e.res.ActiveByType[ti].Name = fmt.Sprintf("active type %d", mt.ID)
		e.typeFirst[ti] = len(e.machines)
		e.fit[ti] = newFitTree(mt.Count)
		for k := 0; k < mt.Count; k++ {
			e.machines = append(e.machines, machine{typeIdx: ti})
		}
	}
	e.res.ActiveSeries.Name = "active machines " + cfg.Policy.Name()
	e.res.UsedSeries.Name = "used machines " + cfg.Policy.Name()
	e.res.QueueSeries.Name = "queued tasks " + cfg.Policy.Name()
	return e
}

func (e *engine) run() error {
	nextPeriod := 0.0
	periodIdx := 0
	var (
		next    trace.Task
		have    bool
		prevSub = math.Inf(-1)
	)
	pull := func() error {
		ok, err := e.cfg.Source.Next(&next)
		if err != nil {
			return fmt.Errorf("sim: task source: %w", err)
		}
		have = ok
		if ok {
			// A NaN or infinite submit would make the energy NaN or stop the
			// order check; a negative duration would move the clock back.
			if math.IsNaN(next.Submit) || math.IsInf(next.Submit, 0) {
				return fmt.Errorf("sim: task %d submit %g is not finite", next.ID, next.Submit)
			}
			if !(next.Duration >= 0) || math.IsInf(next.Duration, 1) {
				return fmt.Errorf("sim: task %d duration %g not in [0,+Inf)", next.ID, next.Duration)
			}
			if next.Submit < prevSub {
				return fmt.Errorf("sim: task %d out of submit order (%g after %g)",
					next.ID, next.Submit, prevSub)
			}
			prevSub = next.Submit
		}
		return nil
	}
	if err := pull(); err != nil {
		return err
	}

	for {
		// Next event time: min(arrival, completion, period boundary).
		tArr, tFin := math.Inf(1), e.running.next()
		if have {
			tArr = next.Submit
		}
		tEvt := math.Min(math.Min(tArr, tFin), nextPeriod)
		if tEvt > e.horizon {
			break
		}
		e.advanceTo(tEvt)

		switch {
		//harmony:allow floateq exact by construction: tEvt is the min of the compared values
		case tEvt == nextPeriod:
			e.periodBoundary(periodIdx)
			e.schedulePending()
			periodIdx++
			nextPeriod += e.cfg.Period
		//harmony:allow floateq exact by construction: tEvt is the min of the compared values
		case tEvt == tFin:
			e.completeOne()
			e.schedulePending()
		default:
			e.handleArrival(next)
			if err := pull(); err != nil {
				return err
			}
		}
	}
	e.advanceTo(e.horizon)
	e.finish(e.horizon)
	return nil
}

// handleArrival enqueues (or immediately places) one arriving task.
//
//harmony:hotpath
func (e *engine) handleArrival(t trace.Task) {
	tt := e.typeOf(t)
	e.arrivals[tt]++
	gi := t.Group().Index()
	p := pendingTask{task: t, taskType: tt}
	// Fast path: preserve FIFO per (group, type) but place an arriving
	// task immediately when nothing of its kind waits.
	if len(e.pending[gi][tt]) == 0 {
		cpu, mem := e.reserved(&p)
		if e.place(&p, cpu, mem) {
			return
		}
		e.tried[gi][tt] = triedRun{n: 1, minCPU: cpu, minMem: mem}
	}
	e.pending[gi][tt] = append(e.pending[gi][tt], p)
	e.pendingCount++
}

func (e *engine) typeOf(t trace.Task) int {
	tt := e.cfg.TypeOf(t)
	if tt < 0 || tt >= e.cfg.NumTypes {
		return 0
	}
	return tt
}

// advanceTo integrates energy from lastEnergy to t.
//
//harmony:hotpath
func (e *engine) advanceTo(t float64) {
	dt := t - e.lastEnergy
	if dt <= 0 {
		e.now = t
		return
	}
	price := e.cfg.Price.At(e.lastEnergy)
	watts := 0.0
	for ti, model := range e.cfg.Models {
		if e.active[ti] == 0 {
			continue
		}
		mt := e.types[ti]
		watts += float64(e.active[ti])*model.IdleWatts +
			model.AlphaCPU*e.sumUsedCPU[ti]/mt.CPU +
			model.AlphaMem*e.sumUsedMem[ti]/mt.Mem
	}
	e.res.EnergyKWh += watts * dt / 3.6e6
	e.res.EnergyCost += energy.Cost(watts, dt, price)
	e.lastEnergy = t
	e.now = t
}

// periodBoundary runs the control-period work: failure injection,
// relabeling, observation, and the policy decision
// (the caller follows it with a scheduling pass under the new directive).
// It is the budgeted residue outside the per-event hot path.
//
//harmony:coldpath period work is budgeted per control period, not per event
func (e *engine) periodBoundary(periodIdx int) {
	e.injectFailures()
	e.relabelRunning()
	obs := e.observe(periodIdx)
	e.res.ActiveSeries.Points = append(e.res.ActiveSeries.Points,
		stats.Point{X: e.now, Y: float64(totalInts(e.active))})
	for ti := range e.active {
		e.res.ActiveByType[ti].Points = append(e.res.ActiveByType[ti].Points,
			stats.Point{X: e.now, Y: float64(e.active[ti])})
	}
	e.res.QueueSeries.Points = append(e.res.QueueSeries.Points,
		stats.Point{X: e.now, Y: float64(totalInts(obs.Queued))})
	e.res.UsedSeries.Points = append(e.res.UsedSeries.Points,
		stats.Point{X: e.now, Y: float64(e.usedMachines())})

	dir := e.cfg.Policy.Period(obs)
	e.apply(dir)
	for i := range e.arrivals {
		e.arrivals[i] = 0
	}
	// Failures, relabeling and the directive may each have made room for a
	// queued task anywhere: the pass that follows starts from scratch.
	e.forgetTried()
	e.nextReady = e.earliestReady()
}

// usedMachines counts the machines running at least one task.
func (e *engine) usedMachines() int {
	used := 0
	for mi := range e.machines {
		if e.machines[mi].tasks > 0 {
			used++
		}
	}
	return used
}

// forgetTried ends every queue's tried run: the next pass gives each
// queued task a full place again.
func (e *engine) forgetTried() {
	for gi := range e.tried {
		clear(e.tried[gi])
	}
}

// earliestReady returns the first instant after now at which a powered
// machine finishes booting or repair, +Inf when all of them are ready.
func (e *engine) earliestReady() float64 {
	next := math.Inf(1)
	for mi := range e.machines {
		m := &e.machines[mi]
		if r := max(m.readyAt, m.downTil); m.on && r > e.now && r < next {
			next = r
		}
	}
	return next
}

func (e *engine) observe(periodIdx int) *Observation {
	obs := &Observation{
		Time:        e.now,
		PeriodIndex: periodIdx,
		Arrivals:    append([]int(nil), e.arrivals...),
		Queued:      make([]int, e.cfg.NumTypes),
		Running:     append([]int(nil), e.runningN...),
		Active:      append([]int(nil), e.active...),
		Price:       e.cfg.Price.At(e.now),
	}
	for g := range e.pending {
		for tt := range e.pending[g] {
			for _, p := range e.pending[g][tt] {
				obs.Queued[p.taskType]++
				obs.QueuedDemandCPU += p.task.CPU
				obs.QueuedDemandMem += p.task.Mem
			}
		}
	}
	for ti := range e.sumUsedCPU {
		obs.RunningDemandCPU += e.sumUsedCPU[ti]
		obs.RunningDemandMem += e.sumUsedMem[ti]
	}
	return obs
}

func (e *engine) apply(dir Directive) {
	e.quota = dir.Quota
	e.reserveCPU = dir.ReserveCPU
	e.reserveMem = dir.ReserveMem
	e.bestFit = dir.BestFit
	if dir.TargetActive == nil {
		return
	}
	for ti, mt := range e.types {
		target := 0
		if ti < len(dir.TargetActive) {
			target = dir.TargetActive[ti]
		}
		if target < 0 {
			target = 0
		}
		if target > mt.Count {
			target = mt.Count
		}
		e.setActive(ti, target)
	}
}

// setActive powers machines of a type up or down toward target. Machines
// with running tasks are never powered off.
func (e *engine) setActive(ti, target int) {
	cost := 0.0
	if e.cfg.SwitchCost != nil {
		cost = e.cfg.SwitchCost[ti]
	}
	first, count := e.typeFirst[ti], e.types[ti].Count
	if e.active[ti] < target {
		for mi := first; mi < first+count; mi++ {
			if e.active[ti] >= target {
				break
			}
			m := &e.machines[mi]
			if !m.on {
				m.on = true
				m.readyAt = e.now + e.cfg.BootDelay
				e.refit(mi)
				e.active[ti]++
				e.res.SwitchEvents++
				e.res.SwitchCost += cost
			}
		}
		return
	}
	if e.active[ti] > target {
		for mi := first; mi < first+count; mi++ {
			if e.active[ti] <= target {
				break
			}
			m := &e.machines[mi]
			if m.on && m.tasks == 0 {
				m.on = false
				e.refit(mi)
				e.active[ti]--
				e.res.SwitchEvents++
				e.res.SwitchCost += cost
			}
		}
	}
}

// failedShape is what decides a placement within one scheduling pass,
// for a task of a given queue: its constraint and the CPU and memory it
// would occupy.
type failedShape struct {
	constraint string
	cpu, mem   float64
}

// triedRun is what one scheduling pass leaves the next about a queue: its
// first n tasks failed a full place (or were dominated by one that did)
// and have failed on every machine freed since, and none of them would
// occupy less than minCPU or minMem.
type triedRun struct {
	n              int
	minCPU, minMem float64
}

// schedulePending walks the queues in priority order (production first),
// then per task type, first-fitting tasks onto powered machines while
// honoring quotas and container reservations. Each type queue tolerates a
// bounded number of placement failures per pass so one unschedulable task
// cannot starve everything behind it.
//
// Within a pass the clock stands still, nothing completes and no machine
// changes power state, so (task demands being positive) free capacity
// only shrinks and quota occupancy only grows. A task of a queue (one task type, hence one reservation
// and one quota column) that needs at least the CPU and memory of an
// earlier task of that queue with the same constraint which failed in
// this pass must therefore fail too: it is charged to the fail budget
// like any failure, without the machine scan.
//
// The same holds from one pass to the next, but for what the trigger of
// the pass released: a completion makes room on one machine (completeOne
// records it in freed) and, if it takes a quota cell from full to not
// full, in that cell (completeOne ends the tried runs of that task type).
// A task inside its queue's tried run can therefore start nowhere but on
// the freed machine, and is tested against that machine alone; a queue
// whose tried run covers everything the fail budget lets a pass reach,
// and whose smallest shape the freed machine cannot hold, is left as it
// is. Only tasks behind the run pay dominated and a scan. Every other way
// a failed task becomes placeable — a period boundary, a powered machine
// finishing boot or repair — ends all tried runs (periodBoundary,
// completeOne), and the pass is the one above.
//
//harmony:hotpath
func (e *engine) schedulePending() {
	if e.pendingCount == 0 {
		return
	}
	for gi := trace.NumGroups - 1; gi >= 0; gi-- {
		for tt := range e.pending[gi] {
			q := e.pending[gi][tt]
			if len(q) == 0 {
				continue
			}
			tr := &e.tried[gi][tt]
			tried := tr.n
			// Whether the freed machine could hold the smallest of the run.
			runFits := tried > 0 && e.fitsFreed("", tt, tr.minCPU, tr.minMem)
			if !runFits && (tried == len(q) || tried == failBudgetPerQueue) {
				continue
			}
			failed := e.failed[:0]
			*tr = triedRun{minCPU: math.Inf(1), minMem: math.Inf(1)}
			kept := 0
			for qi := range q {
				if len(failed) == failBudgetPerQueue {
					kept += copy(q[kept:], q[qi:])
					break
				}
				p := &q[qi]
				cpu, mem := e.reserved(p)
				if qi < tried {
					if runFits && e.fitsFreed(p.task.Constraint, tt, cpu, mem) {
						e.start(p, e.freed, cpu, mem)
						e.pendingCount--
						continue
					}
				} else if !dominated(failed, p.task.Constraint, cpu, mem) && e.place(p, cpu, mem) {
					e.pendingCount--
					continue
				}
				failed = append(failed, failedShape{p.task.Constraint, cpu, mem})
				if cpu < tr.minCPU {
					tr.minCPU = cpu
				}
				if mem < tr.minMem {
					tr.minMem = mem
				}
				if kept != qi {
					q[kept] = *p
				}
				kept++
			}
			tr.n = len(failed)
			e.pending[gi][tt] = q[:kept]
		}
	}
}

// dominated reports whether a task of this shape needs at least what one
// of the failed shapes, under the same constraint, already could not get.
func dominated(failed []failedShape, constraint string, cpu, mem float64) bool {
	for i := range failed {
		if f := &failed[i]; cpu >= f.cpu && mem >= f.mem && constraint == f.constraint {
			return true
		}
	}
	return false
}

// reserved returns what p would occupy on a machine: its demand, raised
// to its type's container reservation under CBS.
func (e *engine) reserved(p *pendingTask) (cpu, mem float64) {
	cpu, mem = p.task.CPU, p.task.Mem
	if e.reserveCPU != nil && p.taskType < len(e.reserveCPU) {
		if r := e.reserveCPU[p.taskType]; r > cpu {
			cpu = r
		}
	}
	if e.reserveMem != nil && p.taskType < len(e.reserveMem) {
		if r := e.reserveMem[p.taskType]; r > mem {
			mem = r
		}
	}
	return cpu, mem
}

// place tries to start p, occupying cpu and mem (from reserved), on some
// machine; reports success.
//
//harmony:hotpath
func (e *engine) place(p *pendingTask, cpu, mem float64) bool {
	e.placeAttempts++
	for ti := range e.types {
		if !e.typeAdmits(ti, p.task.Constraint, p.taskType, cpu, mem) {
			continue
		}
		if mi := e.placeInType(ti, e.types[ti], cpu, mem); mi >= 0 {
			e.start(p, mi, cpu, mem)
			return true
		}
	}
	return false
}

// typeAdmits is the part of a placement decided per machine type: some
// type-ti machine is powered, it is of the platform the constraint names,
// an empty one is large enough, and the (ti, taskType) quota cell has room.
func (e *engine) typeAdmits(ti int, constraint string, taskType int, cpu, mem float64) bool {
	mt := &e.types[ti]
	return e.active[ti] > 0 &&
		(constraint == "" || mt.Platform == constraint) &&
		mt.Fits(cpu, mem) &&
		!e.quotaFull(ti, taskType)
}

// quotaFull reports whether the directive's quota forbids one more
// type-taskType task on type-ti machines.
func (e *engine) quotaFull(ti, taskType int) bool {
	return e.quota != nil && ti < len(e.quota) && e.quota[ti] != nil &&
		taskType < len(e.quota[ti]) &&
		e.occupancy[ti][taskType] >= e.quota[ti][taskType]
}

// holds is the part of a placement decided per machine: m, of type mt, is
// powered, done booting and repaired, and has cpu and mem to spare.
func (e *engine) holds(m *machine, mt *trace.MachineType, cpu, mem float64) bool {
	if !m.on || e.now < m.readyAt || e.now < m.downTil {
		return false
	}
	return !(m.usedCPU+cpu > mt.CPU+1e-12 || m.usedMem+mem > mt.Mem+1e-12)
}

// fitsFreed reports whether place would start a task of this shape on
// the freed machine, were it the only machine with room.
func (e *engine) fitsFreed(constraint string, taskType int, cpu, mem float64) bool {
	if e.freed < 0 {
		return false
	}
	m := &e.machines[e.freed]
	return e.typeAdmits(m.typeIdx, constraint, taskType, cpu, mem) &&
		e.holds(m, &e.types[m.typeIdx], cpu, mem)
}

//harmony:hotpath
func (e *engine) start(p *pendingTask, mi int, cpu, mem float64) {
	m := &e.machines[mi]
	m.usedCPU += cpu
	m.usedMem += mem
	m.tasks++
	e.refit(mi)
	ti := m.typeIdx
	e.sumUsedCPU[ti] += cpu
	e.sumUsedMem[ti] += mem
	e.occupancy[ti][p.taskType]++
	e.runningN[p.taskType]++
	e.running.push(runningTask{
		finish:   e.now + p.task.Duration,
		start:    e.now,
		machine:  mi,
		epoch:    m.epoch,
		taskType: p.taskType,
		task:     p.task,
		cpu:      cpu,
		mem:      mem,
	})
	delay := e.now - p.task.Submit
	if delay < 0 {
		delay = 0
	}
	e.recordDelay(p.task.Group(), delay)
	e.res.Scheduled++
}

// recordDelay routes one scheduling-delay sample either into the exact
// per-group CDF or, at scale, into the bounded reservoir.
//
//harmony:hotpath
func (e *engine) recordDelay(g trace.PriorityGroup, d float64) {
	if rv := e.delayRes[g.Index()]; rv != nil {
		rv.Add(d)
		return
	}
	e.res.DelayByGroup[g].Add(d)
}

//harmony:hotpath
func (e *engine) completeOne() {
	e.freed = -1
	if e.now >= e.nextReady {
		// A machine powered on at an earlier boundary is ready now.
		e.forgetTried()
		e.nextReady = e.earliestReady()
	}
	rt := e.running.pop()
	m := &e.machines[rt.machine]
	if rt.epoch != m.epoch {
		return // execution was aborted by a machine failure
	}
	m.usedCPU -= rt.cpu
	m.usedMem -= rt.mem
	if m.usedCPU < 0 {
		m.usedCPU = 0
	}
	if m.usedMem < 0 {
		m.usedMem = 0
	}
	m.tasks--
	e.refit(rt.machine)
	ti := m.typeIdx
	e.sumUsedCPU[ti] -= rt.cpu
	e.sumUsedMem[ti] -= rt.mem
	if e.sumUsedCPU[ti] < 0 {
		e.sumUsedCPU[ti] = 0
	}
	if e.sumUsedMem[ti] < 0 {
		e.sumUsedMem[ti] = 0
	}
	wasFull := e.quotaFull(ti, rt.taskType)
	e.occupancy[ti][rt.taskType]--
	if wasFull && !e.quotaFull(ti, rt.taskType) {
		// Every type-ti machine just opened to this task type, not only m.
		for gi := range e.tried {
			e.tried[gi][rt.taskType] = triedRun{}
		}
	}
	e.freed = rt.machine
	e.runningN[rt.taskType]--
	e.res.Completed++
}

// injectFailures fails each powered machine with the per-period hazard
// implied by the configured MTBF. A failed machine aborts its executions
// (the tasks requeue and restart from scratch), powers off, and stays
// unavailable for the repair interval.
//
// The hazard draws are sequential — the RNG stream is part of the
// deterministic contract — but the expensive part, finding the aborted
// executions, is a single pass over the running set instead of a full
// rescan per failed machine (O(R+F) rather than O(R·F)).
func (e *engine) injectFailures() {
	if e.cfg.MTBFHours <= 0 || e.failRand == nil {
		return
	}
	pFail := e.cfg.Period / (e.cfg.MTBFHours * 3600)
	if pFail > 1 {
		pFail = 1
	}
	// Phase 1: draw the hazards and take the failed machines down,
	// recording the epoch their live executions carry.
	var failed []int // machine ids, ascending (requeue grouping order)
	liveEpoch := make(map[int]int)
	for mi := range e.machines {
		m := &e.machines[mi]
		if !m.on || e.failRand.Float64() >= pFail {
			continue
		}
		e.res.Failures++
		failed = append(failed, mi)
		liveEpoch[mi] = m.epoch
		m.epoch++
		m.on = false
		m.downTil = e.now + repairSeconds
		ti := m.typeIdx
		e.active[ti]--
		e.sumUsedCPU[ti] -= m.usedCPU
		e.sumUsedMem[ti] -= m.usedMem
		m.usedCPU = 0
		m.usedMem = 0
		m.tasks = 0
		e.refit(mi)
	}
	if len(failed) == 0 {
		return
	}
	// Phase 2: one pass over the running set collects the aborted
	// executions, grouped per failed machine to preserve the requeue
	// order of the per-machine scan. Only entries carrying the
	// machine's pre-failure epoch are live: stale entries left in the
	// heap by an earlier failure were requeued back then and must not
	// requeue twice.
	orderOf := make(map[int]int, len(failed))
	for i, mi := range failed {
		orderOf[mi] = i
	}
	aborted := make([][]*runningTask, len(failed))
	for i := range e.running.keys {
		rt := e.running.at(i)
		oi, ok := orderOf[rt.machine]
		if !ok || rt.epoch != liveEpoch[rt.machine] {
			continue
		}
		aborted[oi] = append(aborted[oi], rt)
	}
	for i, mi := range failed {
		ti := e.machines[mi].typeIdx
		for _, rt := range aborted[i] {
			e.res.TasksKilled++
			e.occupancy[ti][rt.taskType]--
			e.runningN[rt.taskType]--
			gi := rt.task.Group().Index()
			e.pending[gi][rt.taskType] = append(e.pending[gi][rt.taskType],
				pendingTask{task: rt.task, taskType: rt.taskType})
			e.pendingCount++
			// Scheduled/delay stats were already recorded at first
			// placement; the requeued execution will not re-record.
			e.res.Scheduled--
		}
	}
}

// relabelRunning applies the configured relabel hook to every running
// task, moving quota occupancy and per-type counts when a label changes.
func (e *engine) relabelRunning() {
	if e.cfg.Relabel == nil {
		return
	}
	for i := range e.running.keys {
		rt := e.running.at(i)
		if rt.epoch != e.machines[rt.machine].epoch {
			continue
		}
		nt := e.cfg.Relabel(rt.taskType, e.now-rt.start)
		if nt == rt.taskType || nt < 0 || nt >= e.cfg.NumTypes {
			continue
		}
		ti := e.machines[rt.machine].typeIdx
		e.occupancy[ti][rt.taskType]--
		e.occupancy[ti][nt]++
		e.runningN[rt.taskType]--
		e.runningN[nt]++
		rt.taskType = nt
	}
}

func (e *engine) finish(horizon float64) {
	// Tasks still pending are censored at the horizon: they register
	// their waiting time so far, which underestimates their final delay
	// but keeps them visible in the CDFs.
	for gi := range e.pending {
		for tt := range e.pending[gi] {
			for _, p := range e.pending[gi][tt] {
				e.recordDelay(p.task.Group(), horizon-p.task.Submit)
				e.res.Unscheduled++
			}
		}
	}
	// In reservoir mode the CDFs are built once, from the retained
	// samples, at the very end.
	if e.cfg.MaxDelaySamples > 0 {
		for _, g := range trace.Groups() {
			e.res.DelayByGroup[g] = e.delayRes[g.Index()].CDF()
		}
	}
}

func totalInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
