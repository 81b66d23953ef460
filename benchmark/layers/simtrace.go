package layers

import (
	"bytes"
	"fmt"
	"time"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/trace"
)

// Scenario is the statistical identity of one workload's traffic, in
// plain values so the end-to-end drivers need not import internal types.
type Scenario struct {
	Seed     int64
	Hours    float64
	Rate     float64 // tasks/s of model time
	Scale    int     // Table II divisor
	CBS      bool    // offline: PolicyCBS (else PolicyBaseline)
	CharJSON []byte  // harmony.Characterization.Save output
}

// The facade's defaults (harmony.SimulationConfig.defaults,
// StreamConfig.defaults), duplicated here because the traced run wires
// sim.Run itself. TraceSim's caller proves the duplication is the same
// program by comparing SimStats with the facade's result exactly.
const (
	periodSeconds       = 300.0
	mpcHorizon          = 2
	epsilon             = 0.25
	omega               = 1.05
	switchCostDollars   = 0.01
	pricePerKWh         = 0.08
	baselineUtilization = 0.8
	bootDelaySeconds    = 120.0
	maxDelaySamples     = 100_000
	genChunk            = 4096
)

// population is harmony.clusterPopulation for ClusterTableII.
func (sc Scenario) population() ([]trace.MachineType, []energy.Model) {
	models := energy.TableII()
	machines := make([]trace.MachineType, len(models))
	for i := range models {
		if sc.Scale > 1 {
			models[i].Count /= sc.Scale
			if models[i].Count < 1 {
				models[i].Count = 1
			}
		}
		machines[i] = models[i].MachineType(i + 1)
	}
	return machines, models
}

func (sc Scenario) genConfig(hours float64) trace.Config {
	machines, _ := sc.population()
	cfg := trace.DefaultConfig(sc.Seed)
	cfg.Horizon = hours * trace.Hour
	cfg.RatePerS = sc.Rate
	cfg.Machines = machines
	return cfg
}

func (sc Scenario) characterization() (*classify.Characterization, error) {
	return classify.Load(bytes.NewReader(sc.CharJSON))
}

// switchCosts scales the per-transition cost by idle power relative to
// the largest machine, as the facade and the daemon both do.
func switchCosts(models []energy.Model) []float64 {
	maxIdle := 0.0
	for _, m := range models {
		if m.IdleWatts > maxIdle {
			maxIdle = m.IdleWatts
		}
	}
	out := make([]float64, len(models))
	for i, m := range models {
		out[i] = switchCostDollars * m.IdleWatts / maxIdle
	}
	return out
}

// newHarmony builds the HARMONY policy exactly as buildPolicySetup does
// under every SimulationConfig default.
func newHarmony(machines []trace.MachineType, models []energy.Model, types []classify.TaskType) (*sched.Harmony, error) {
	return sched.NewHarmony(sched.HarmonyConfig{
		Mode:          core.CBS,
		Machines:      machines,
		Models:        models,
		Types:         types,
		Price:         energy.FlatPrice(pricePerKWh),
		PeriodSeconds: periodSeconds,
		Horizon:       mpcHorizon,
		Epsilon:       epsilon,
		Omega:         omega,
		SwitchCost:    switchCosts(models),
		Predictor:     sched.PredictARIMA,
	})
}

// SimStats is every deterministic scalar the facade reports for a run;
// the traced run must reproduce it bit for bit.
type SimStats struct {
	Tasks        int64
	EnergyKWh    float64
	EnergyCost   float64
	SwitchCost   float64
	SwitchEvents int
	Scheduled    int
	Unscheduled  int
	Completed    int
	MeanDelay    [trace.NumGroups]float64 // gratis, other, production
}

// Tick is what the traced policy wrapper saw at one control period.
type Tick struct {
	Obs          sim.Observation // deep copy
	TargetActive []int
	PolicyNs     int64
}

// SimTrace is the in-situ view of one traced offline run.
type SimTrace struct {
	Stats  SimStats
	WallNs int64
	Root   int // span id of the run
	Ticks  []Tick
}

// sampleEvery is the 1-in-N timing of the per-task classify calls: they
// cost tens of nanoseconds, so timing each would measure the clock.
const sampleEvery = 64

// sampled aggregates calls of which every sampleEvery-th is timed.
type sampled struct {
	calls, timed int64
	timedNs      int64
	first, last  int64
}

func (s *sampled) estimateNs() int64 {
	if s.timed == 0 {
		return 0
	}
	return s.timedNs * s.calls / s.timed
}

// tracer holds the per-period aggregates the wrappers fill and the
// policy wrapper flushes into spans at every period boundary.
type tracer struct {
	rec                    *Recorder
	root                   int
	next, initial, refresh sampled
	ticks                  []Tick
}

func (t *tracer) flush() {
	for _, a := range []struct {
		name string
		s    *sampled
		busy int64
	}{
		{"trace.Next", &t.next, t.next.timedNs}, // every call timed
		{"classify.Initial", &t.initial, t.initial.estimateNs()},
		{"classify.Refresh", &t.refresh, t.refresh.estimateNs()},
	} {
		if a.s.calls > 0 {
			t.rec.Add(Span{Parent: t.root, Name: a.name, StartNs: a.s.first, EndNs: a.s.last, Count: a.s.calls, BusyNs: a.busy})
		}
		*a.s = sampled{}
	}
}

// time runs f, timing it when this is a sampled call (every call when
// every is 1).
func (s *sampled) time(rec *Recorder, every int64, f func()) {
	s.calls++
	if s.calls%every != 0 {
		f()
		return
	}
	start := rec.Now()
	f()
	end := rec.Now()
	if s.timed == 0 {
		s.first = start
	}
	s.last = end
	s.timed++
	s.timedNs += end - start
}

// tracedSource wraps sim.Config.Source. GenSource.Next is cheap except
// when it refills its chunk, so every call is timed.
type tracedSource struct {
	src trace.TaskSource
	t   *tracer
	n   int64
}

func (s *tracedSource) Meta() trace.Meta { return s.src.Meta() }

func (s *tracedSource) Next(task *trace.Task) (ok bool, err error) {
	s.t.next.time(s.t.rec, 1, func() { ok, err = s.src.Next(task) })
	if ok {
		s.n++
	}
	return ok, err
}

// tracedPolicy wraps sim.Policy: one span per control period, plus a
// copy of what the policy saw and decided for the probes.
type tracedPolicy struct {
	inner   sim.Policy
	t       *tracer
	capture bool
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Period(obs *sim.Observation) sim.Directive {
	p.t.flush()
	start := p.t.rec.Now()
	dir := p.inner.Period(obs)
	end := p.t.rec.Now()
	p.t.rec.Add(Span{Parent: p.t.root, Name: "sched.Period", StartNs: start, EndNs: end})
	tick := Tick{PolicyNs: end - start}
	if p.capture {
		tick.Obs = copyObservation(obs)
		tick.TargetActive = append([]int(nil), dir.TargetActive...)
	}
	p.t.ticks = append(p.t.ticks, tick)
	return dir
}

func copyObservation(o *sim.Observation) sim.Observation {
	c := *o
	c.Arrivals = append([]int(nil), o.Arrivals...)
	c.Queued = append([]int(nil), o.Queued...)
	c.Running = append([]int(nil), o.Running...)
	c.Active = append([]int(nil), o.Active...)
	return c
}

// TraceSim runs the scenario through sim.Run wired exactly as
// harmony.SimulateStream wires it — the same population, defaults,
// sched.NewHarmony config and labeler closures — with timing wrappers
// on Source, Policy, TypeOf and Relabel.
func TraceSim(sc Scenario, rec *Recorder) (*SimTrace, error) {
	machines, models := sc.population()
	src, err := trace.NewGenSource(sc.genConfig(sc.Hours), genChunk)
	if err != nil {
		return nil, err
	}
	t := &tracer{rec: rec}

	numTypes := 1
	typeOf := func(trace.Task) int { return 0 }
	var relabel func(int, float64) int
	var policy sim.Policy = &sched.Baseline{Machines: machines, Models: models, Utilization: baselineUtilization}
	var harmony *sched.Harmony
	if sc.CBS {
		ch, err := sc.characterization()
		if err != nil {
			return nil, err
		}
		types := ch.TaskTypes()
		labeler := classify.NewLabeler(ch)
		typeIdx := make(map[classify.TypeID]int, len(types))
		for i, tt := range types {
			typeIdx[tt.ID] = i
		}
		numTypes = len(types)
		typeOf = func(task trace.Task) (idx int) {
			t.initial.time(rec, sampleEvery, func() {
				if id, ok := labeler.Initial(task); ok {
					idx = typeIdx[id]
				}
			})
			return idx
		}
		relabel = func(current int, age float64) (out int) {
			t.refresh.time(rec, sampleEvery, func() {
				out = current
				if current < 0 || current >= len(types) {
					return
				}
				if next, ok := typeIdx[labeler.Refresh(types[current].ID, age)]; ok {
					out = next
				}
			})
			return out
		}
		if harmony, err = newHarmony(machines, models, types); err != nil {
			return nil, err
		}
		policy = harmony
	}

	source := &tracedSource{src: src, t: t}
	t.root = rec.Add(Span{Name: "sim.Run", StartNs: rec.Now()})
	start := time.Now()
	res, err := sim.Run(sim.Config{
		Source:          source,
		Models:          models,
		Price:           energy.FlatPrice(pricePerKWh),
		Policy:          &tracedPolicy{inner: policy, t: t, capture: sc.CBS},
		Period:          periodSeconds,
		NumTypes:        numTypes,
		TypeOf:          typeOf,
		Relabel:         relabel,
		SwitchCost:      switchCosts(models),
		BootDelay:       bootDelaySeconds,
		MaxDelaySamples: maxDelaySamples,
	})
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("traced sim.Run: %w", err)
	}
	if harmony != nil && harmony.Err() != nil {
		return nil, fmt.Errorf("traced policy: %w", harmony.Err())
	}
	t.flush()
	rec.End(t.root)

	st := SimStats{
		Tasks: source.n, EnergyKWh: res.EnergyKWh, EnergyCost: res.EnergyCost, SwitchCost: res.SwitchCost,
		SwitchEvents: res.SwitchEvents, Scheduled: res.Scheduled, Unscheduled: res.Unscheduled, Completed: res.Completed,
	}
	for _, g := range trace.Groups() {
		st.MeanDelay[g.Index()] = res.MeanDelay(g)
	}
	return &SimTrace{Stats: st, WallNs: int64(wall), Root: t.root, Ticks: t.ticks}, nil
}
