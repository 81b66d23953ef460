// Package harmony is a reproduction of "HARMONY: Dynamic
// Heterogeneity-Aware Resource Provisioning in the Cloud" (Zhang, Zhani,
// Boutaba, Hellerstein — ICDCS 2013): a dynamic capacity provisioning
// framework that characterizes a heterogeneous workload with two-step
// K-means clustering, forecasts per-class arrival rates with ARIMA, sizes
// container reservations by statistical multiplexing, and controls the
// number of powered machines of each type with a Model Predictive Control
// loop around the CBS-RELAX linear program.
//
// The package is a facade over the building blocks in internal/: workload
// generation (internal/trace), characterization (internal/classify),
// forecasting (internal/forecast), the M/G/c queueing model
// (internal/queueing), container sizing (internal/container), the LP
// solver (internal/lp), the controller (internal/core), the cluster
// simulator (internal/sim) and the policies (internal/sched).
//
// Typical use:
//
//	w, _ := harmony.GenerateWorkload(harmony.WorkloadConfig{Seed: 1, Hours: 24, TasksPerSecond: 1, Cluster: harmony.ClusterTableII, ClusterScale: 10})
//	ch, _ := w.Characterize(harmony.CharacterizeConfig{})
//	res, _ := harmony.Simulate(w, ch, harmony.SimulationConfig{Policy: harmony.PolicyCBS})
//	fmt.Printf("energy: %.1f kWh, mean production delay: %.1fs\n",
//		res.EnergyKWh, res.MeanDelaySeconds[harmony.GroupProduction])
package harmony

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/energy"
	"harmony/internal/sched"
	"harmony/internal/sim"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// Point is one (x, y) sample of a plotted series.
type Point = stats.Point

// Series is a named sequence of points — the unit every experiment emits.
type Series = stats.Series

// Group identifies a task priority group.
type Group = trace.PriorityGroup

// Priority groups (gratis = priorities 0-1, other = 2-8, production = 9-11).
const (
	GroupGratis     = trace.Gratis
	GroupOther      = trace.Other
	GroupProduction = trace.Production
)

// Groups lists the three priority groups.
func Groups() []Group { return trace.Groups() }

// Cluster selects the simulated machine population.
type Cluster int

// Cluster kinds.
const (
	// ClusterTableII is the paper's evaluation cluster (Table II):
	// four server models, 10 000 machines at scale 1.
	ClusterTableII Cluster = iota + 1
	// ClusterGoogleLike is the ten-type population of Figure 5 with
	// synthetic energy models.
	ClusterGoogleLike
)

// WorkloadConfig parameterizes synthetic workload generation.
type WorkloadConfig struct {
	Seed           int64
	Hours          float64 // trace length (default 24)
	TasksPerSecond float64 // mean arrival rate (default 1)
	Cluster        Cluster // default ClusterTableII
	// ClusterScale divides machine counts (e.g. 10 turns the 10 000
	// machine Table II cluster into 1 000 machines). Default 1.
	ClusterScale int
}

// Workload is a generated task trace plus its machine population and
// energy models.
type Workload struct {
	Trace  *trace.Trace
	Models []energy.Model
}

// GenerateWorkload builds a synthetic Google-like workload (Section III
// statistics) against the selected cluster.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	gen, models, err := cfg.generator()
	if err != nil {
		return nil, err
	}
	tr, err := trace.Generate(gen)
	if err != nil {
		return nil, fmt.Errorf("harmony: generate workload: %w", err)
	}
	return &Workload{Trace: tr, Models: models}, nil
}

// generator applies the workload defaults and resolves the cluster
// selection into the trace generator's configuration and the energy
// models matching its machine population. GenerateWorkload materializes
// what it describes; SimulateStream streams it.
func (cfg WorkloadConfig) generator() (trace.Config, []energy.Model, error) {
	if err := finite("Hours", cfg.Hours); err != nil {
		return trace.Config{}, nil, err
	}
	if err := finite("TasksPerSecond", cfg.TasksPerSecond); err != nil {
		return trace.Config{}, nil, err
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	if cfg.TasksPerSecond <= 0 {
		cfg.TasksPerSecond = 1
	}
	gen := trace.DefaultConfig(cfg.Seed)
	gen.Horizon = cfg.Hours * trace.Hour
	gen.RatePerS = cfg.TasksPerSecond
	var models []energy.Model
	switch cfg.Cluster {
	case 0, ClusterTableII:
		models, gen.Machines = energy.TableIIScaled(cfg.ClusterScale)
	case ClusterGoogleLike:
		gen.Machines = trace.GoogleLikeMachines(12000 / max(cfg.ClusterScale, 1))
		models = energy.SyntheticModels(gen.Machines)
	default:
		return trace.Config{}, nil, fmt.Errorf("harmony: unknown cluster %d", int(cfg.Cluster))
	}
	return gen, models, nil
}

// finite rejects NaN and ±Inf for a field whose zero and negative values
// select its default: NaN fails the "<= 0" test the defaults use, and an
// infinite length, rate or period is a run that never ends.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("harmony: %s must be finite, got %v", field, v)
	}
	return nil
}

// LoadWorkload reads a workload from a trace file produced by
// cmd/tracegen (JSON-lines format). Energy models for the machine types
// are always synthesized from their capacities (energy.SyntheticModels),
// even for the Table II population: a trace file carries no models.
func LoadWorkload(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("harmony: load workload: %w", err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("harmony: load workload: %w", err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("harmony: load workload: %w", err)
	}
	return &Workload{Trace: tr, Models: energy.SyntheticModels(tr.Machines)}, nil
}

// NumTasks returns the number of tasks in the workload.
func (w *Workload) NumTasks() int { return len(w.Trace.Tasks) }

// NumMachines returns the machine population size.
func (w *Workload) NumMachines() int { return w.Trace.TotalMachines() }

// CharacterizeConfig controls the two-step clustering. Zero
// MaxClassesPerGroup takes the classifier's default (12).
type CharacterizeConfig struct {
	MaxClassesPerGroup int
	Seed               int64
}

// ClassInfo is the public view of one task class.
type ClassInfo struct {
	ID           int
	Group        Group
	CPU, Mem     float64 // centroid demand
	CPUStd       float64
	MemStd       float64
	Count        int
	SubDurations []float64 // mean duration per sub-class, short first
	SubCounts    []int
}

// Characterization is the result of workload clustering.
type Characterization struct {
	ch *classify.Characterization
}

// Characterize runs HARMONY's two-step task classification on the workload.
func (w *Workload) Characterize(cfg CharacterizeConfig) (*Characterization, error) {
	ch, err := classify.Characterize(w.Trace, classify.Config{
		MaxK: cfg.MaxClassesPerGroup,
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("harmony: characterize: %w", err)
	}
	return &Characterization{ch: ch}, nil
}

// Classes returns the task classes.
func (c *Characterization) Classes() []ClassInfo {
	out := make([]ClassInfo, len(c.ch.Classes))
	for i := range c.ch.Classes {
		cl := &c.ch.Classes[i]
		info := ClassInfo{
			ID:     cl.ID,
			Group:  cl.Group,
			CPU:    cl.CPU,
			Mem:    cl.Mem,
			CPUStd: cl.CPUStd,
			MemStd: cl.MemStd,
			Count:  cl.Count,
		}
		for _, sub := range cl.Sub {
			info.SubDurations = append(info.SubDurations, sub.MeanDuration)
			info.SubCounts = append(info.SubCounts, sub.Count)
		}
		out[i] = info
	}
	return out
}

// NumTaskTypes returns the number of provisionable task types
// (class × short/long sub-class).
func (c *Characterization) NumTaskTypes() int { return len(c.ch.TaskTypes()) }

// Save serializes the characterization as JSON, so the offline
// characterization phase and the online controller can run in different
// processes (§VIII).
func (c *Characterization) Save(w io.Writer) error {
	return classify.Save(w, c.ch)
}

// LoadCharacterization parses a characterization produced by Save.
func LoadCharacterization(r io.Reader) (*Characterization, error) {
	ch, err := classify.Load(r)
	if err != nil {
		return nil, err
	}
	return &Characterization{ch: ch}, nil
}

// Policy selects the provisioning scheme to simulate.
type Policy int

// Provisioning policies.
const (
	// PolicyBaseline is the heterogeneity-oblivious comparison scheme:
	// 80% bottleneck utilization, machines powered greedily by energy
	// efficiency.
	PolicyBaseline Policy = iota + 1
	// PolicyCBS is HARMONY with container-based scheduling.
	PolicyCBS
	// PolicyCBP is HARMONY with container-based provisioning only.
	PolicyCBP
	// PolicyAlwaysOn keeps the whole cluster powered (no DCP).
	PolicyAlwaysOn
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyBaseline:
		return "baseline"
	case PolicyCBS:
		return "harmony-CBS"
	case PolicyCBP:
		return "harmony-CBP"
	case PolicyAlwaysOn:
		return "always-on"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// SimulationConfig parameterizes one simulated run.
type SimulationConfig struct {
	Policy        Policy
	PeriodSeconds float64 // control period (0 means 300; at most a day)
	// Horizon (MPC look-ahead periods), Epsilon (per-machine overflow
	// bound for container sizing) and Omega (over-provisioning factor
	// compensating bin-packing inefficiency, Eq. 17) pass through to the
	// HARMONY policy; zero values take its defaults (2, 0.25, 1.05), a
	// negative Horizon, an Epsilon outside (0,1) or an Omega outside
	// [1,+Inf) is an error.
	Horizon int
	Epsilon float64
	Omega   float64
	// DiurnalPrice swaps the flat electricity price
	// (energy.DefaultPricePerKWh) for a sinusoidal daily one around it.
	DiurnalPrice bool
	// Forecaster selects the arrival-rate prediction model for the
	// HARMONY policies: "arima" (default), "auto-arima", "seasonal",
	// "ewma" or "holtwinters".
	Forecaster string
}

// bootDelaySeconds is how long a simulated machine takes from power-on to
// accepting tasks. Reactive policies feel it as scheduling delay on every
// ramp; the MPC controller pre-provisions.
const bootDelaySeconds = 120

func (cfg *SimulationConfig) defaults() {
	if cfg.PeriodSeconds == 0 {
		cfg.PeriodSeconds = 300
	}
}

// price is the electricity price a run is billed at: flat at
// energy.DefaultPricePerKWh, or diurnal around it.
func (cfg SimulationConfig) price() energy.Price {
	const kwh = energy.DefaultPricePerKWh
	if cfg.DiurnalPrice {
		return energy.DiurnalPrice{Base: kwh, Amplitude: kwh / 3, PhaseHour: 4}
	}
	return energy.FlatPrice(kwh)
}

// modes maps the HARMONY policies to the controller's realization mode.
var modes = map[Policy]core.Mode{PolicyCBS: core.CBS, PolicyCBP: core.CBP}

// loop builds Algorithm 1's controller for a HARMONY policy over the
// given machines through sched.NewLoop, as harmonyd's engine does; cfg's
// defaults are already applied.
func (cfg SimulationConfig) loop(machines []trace.MachineType, models []energy.Model, c *Characterization) (*sched.Harmony, *classify.Labeler, error) {
	if c == nil {
		return nil, nil, errors.New("harmony: HARMONY policies need a characterization")
	}
	predictor, err := sched.ParsePredictor(cfg.Forecaster)
	if err != nil {
		return nil, nil, fmt.Errorf("harmony: %w", err)
	}
	return sched.NewLoop(c.ch, sched.HarmonyConfig{
		Mode:          modes[cfg.Policy],
		Machines:      machines,
		Models:        models,
		Price:         cfg.price(),
		PeriodSeconds: cfg.PeriodSeconds,
		Horizon:       cfg.Horizon,
		Epsilon:       cfg.Epsilon,
		Omega:         cfg.Omega,
		Predictor:     predictor,
	})
}

// SimulationResult is the outcome of one simulated run.
type SimulationResult struct {
	Policy string

	EnergyKWh    float64
	EnergyCost   float64
	SwitchCost   float64
	SwitchEvents int

	Scheduled   int
	Unscheduled int
	Completed   int

	// MeanDelaySeconds is the mean scheduling delay per priority group.
	MeanDelaySeconds map[Group]float64
	// DelayCDF holds per-group scheduling-delay CDF curves.
	DelayCDF map[Group]Series
	// ActiveMachines is the powered-machine count over time.
	ActiveMachines Series
	// UsedMachines is the count of machines running at least one task
	// over time.
	UsedMachines Series
	// Containers, for HARMONY policies, is the per-group container
	// count over time (Figure 20). Nil otherwise.
	Containers map[Group]Series
}

// Simulate runs the workload under the selected policy and returns its
// measurements. The characterization is required for the HARMONY policies
// and optional (may be nil) for baseline/always-on.
func Simulate(w *Workload, c *Characterization, cfg SimulationConfig) (*SimulationResult, error) {
	if w == nil {
		return nil, errors.New("harmony: nil workload")
	}
	return run(trace.NewSliceSource(w.Trace), w.Models, c, cfg, 0)
}

// run is the one wiring of the pipeline behind Simulate and
// SimulateStream: price, switch costs, the policy and (for the HARMONY
// policies) the task-type labeling, over the machine population src
// announces. maxDelaySamples is sim.Config.MaxDelaySamples.
func run(src trace.TaskSource, models []energy.Model, c *Characterization, cfg SimulationConfig, maxDelaySamples int) (*SimulationResult, error) {
	if !(cfg.PeriodSeconds >= 0) || math.IsInf(cfg.PeriodSeconds, 1) {
		return nil, fmt.Errorf("harmony: PeriodSeconds must be finite and not negative, got %v", cfg.PeriodSeconds)
	}
	cfg.defaults()
	machines := src.Meta().Machines
	// Only the HARMONY policies get per-type queues and relabeling:
	// container-based scheduling restructures the scheduler around task
	// classes. The baseline and always-on policies keep the legacy
	// scheduler — per-priority FIFO first-fit, one task type — which
	// suffers head-of-line blocking when a large task cannot be placed
	// (the schedulability failure the paper attributes to
	// heterogeneity-oblivious provisioning, §IX-B).
	sc := sim.Config{
		Source:   src,
		Models:   models,
		Price:    cfg.price(),
		Period:   cfg.PeriodSeconds,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
		// Per-type switch costs scale with idle power relative to the
		// largest machine (the costs sched.NewLoop gives the policy).
		SwitchCost:      energy.SwitchCosts(models, energy.DefaultSwitchCostDollars),
		BootDelay:       bootDelaySeconds,
		MaxDelaySamples: maxDelaySamples,
	}
	var harmonyPolicy *sched.Harmony
	switch cfg.Policy {
	case PolicyAlwaysOn:
		counts := make([]int, len(machines))
		for i, mt := range machines {
			counts[i] = mt.Count
		}
		sc.Policy = &sched.AlwaysOn{Counts: counts}
	case PolicyBaseline:
		sc.Policy = &sched.Baseline{Machines: machines, Models: models}
	case PolicyCBS, PolicyCBP:
		policy, labeler, err := cfg.loop(machines, models, c)
		if err != nil {
			return nil, err
		}
		harmonyPolicy, sc.Policy, sc.NumTypes = policy, policy, len(policy.Config().Types)
		sc.TypeOf = func(task trace.Task) int {
			idx, _ := labeler.InitialIndex(task) // unlabeled tasks queue as type 0
			return idx
		}
		sc.Relabel = labeler.RefreshIndex
	default:
		return nil, fmt.Errorf("harmony: unknown policy %d", int(cfg.Policy))
	}

	res, err := sim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("harmony: simulate %v: %w", cfg.Policy, err)
	}
	out := &SimulationResult{
		Policy:           res.Policy,
		EnergyKWh:        res.EnergyKWh,
		EnergyCost:       res.EnergyCost,
		SwitchCost:       res.SwitchCost,
		SwitchEvents:     res.SwitchEvents,
		Scheduled:        res.Scheduled,
		Unscheduled:      res.Unscheduled,
		Completed:        res.Completed,
		MeanDelaySeconds: make(map[Group]float64, trace.NumGroups),
		DelayCDF:         make(map[Group]Series, trace.NumGroups),
		ActiveMachines:   res.ActiveSeries,
		UsedMachines:     res.UsedSeries,
	}
	for _, g := range trace.Groups() {
		out.MeanDelaySeconds[g] = res.MeanDelay(g)
		out.DelayCDF[g] = Series{
			Name:   fmt.Sprintf("delay CDF %s (%s)", g, res.Policy),
			Points: res.DelayByGroup[g].Points(101),
		}
	}
	if harmonyPolicy != nil {
		if err := harmonyPolicy.Err(); err != nil {
			return nil, fmt.Errorf("harmony: policy error: %w", err)
		}
		out.Containers = harmonyPolicy.ContainerSeries()
	}
	return out, nil
}
