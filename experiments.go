package harmony

import (
	"fmt"
	"sort"
	"strings"

	"harmony/internal/energy"
	"harmony/internal/trace"
)

// Experiment is the regenerated form of one paper figure or table.
type Experiment struct {
	ID      string
	Title   string
	Series  []Series
	Summary map[string]float64
}

// Render writes the experiment as plain text (header, summary numbers,
// then each series).
func (e *Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	if len(e.Summary) > 0 {
		keys := make([]string, 0, len(e.Summary))
		for k := range e.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-40s %12.6g\n", k, e.Summary[k])
		}
	}
	for _, s := range e.Series {
		b.WriteString(s.Render())
	}
	return b.String()
}

// memo is a value computed on first use and kept, error included.
type memo[T any] struct {
	done bool
	v    T
	err  error
}

func (m *memo[T]) get(compute func() (T, error)) (T, error) {
	if !m.done {
		m.v, m.err = compute()
		m.done = true
	}
	return m.v, m.err
}

// Env holds the lazily built inputs shared by all experiments: the
// workload, its characterization, and one simulation per policy, each
// computed on first use and kept. An Env is for one goroutine.
type Env struct {
	WorkloadCfg     WorkloadConfig
	CharacterizeCfg CharacterizeConfig
	SimCfg          SimulationConfig

	w    memo[*Workload]
	c    memo[*Characterization]
	runs [PolicyAlwaysOn + 1]memo[*SimulationResult] // indexed by Policy
}

// NewEnv creates an experiment environment. Zero-valued configs get the
// package defaults (24h Table II workload at scale 10).
func NewEnv(wc WorkloadConfig, cc CharacterizeConfig, sc SimulationConfig) *Env {
	if wc.ClusterScale <= 0 {
		wc.ClusterScale = 10
	}
	return &Env{WorkloadCfg: wc, CharacterizeCfg: cc, SimCfg: sc}
}

// Workload returns the (lazily generated) workload.
func (e *Env) Workload() (*Workload, error) {
	return e.w.get(func() (*Workload, error) { return GenerateWorkload(e.WorkloadCfg) })
}

// Characterization returns the (lazily computed) clustering.
func (e *Env) Characterization() (*Characterization, error) {
	return e.c.get(func() (*Characterization, error) {
		w, err := e.Workload()
		if err != nil {
			return nil, err
		}
		return w.Characterize(e.CharacterizeCfg)
	})
}

// simulate returns the cached simulation of the workload under p.
func (e *Env) simulate(p Policy) (*SimulationResult, error) {
	return e.runs[p].get(func() (*SimulationResult, error) {
		w, err := e.Workload()
		if err != nil {
			return nil, err
		}
		var c *Characterization
		if p == PolicyCBS || p == PolicyCBP {
			if c, err = e.Characterization(); err != nil {
				return nil, err
			}
		}
		cfg := e.SimCfg
		cfg.Policy = p
		return Simulate(w, c, cfg)
	})
}

// BaselineRun returns the cached baseline simulation.
func (e *Env) BaselineRun() (*SimulationResult, error) { return e.simulate(PolicyBaseline) }

// CBSRun returns the cached HARMONY-CBS simulation.
func (e *Env) CBSRun() (*SimulationResult, error) { return e.simulate(PolicyCBS) }

// CBPRun returns the cached HARMONY-CBP simulation.
func (e *Env) CBPRun() (*SimulationResult, error) { return e.simulate(PolicyCBP) }

// comparisonRuns returns the three simulations of the paper's §IX
// comparison, run on first use in the order baseline, CBS, CBP.
func (e *Env) comparisonRuns() (base, cbs, cbp *SimulationResult, err error) {
	if base, err = e.BaselineRun(); err != nil {
		return nil, nil, nil, err
	}
	if cbs, err = e.CBSRun(); err != nil {
		return nil, nil, nil, err
	}
	cbp, err = e.CBPRun()
	return base, cbs, cbp, err
}

// experiments lists every regenerable figure/table in paper order.
var experiments = []struct {
	id  string
	run func(*Env) (*Experiment, error)
}{
	{"fig1", func(e *Env) (*Experiment, error) { return e.demandExperiment(true) }},
	{"fig2", func(e *Env) (*Experiment, error) { return e.demandExperiment(false) }},
	{"fig3", (*Env).machineUsageExperiment},
	{"fig4", (*Env).delayCDFExperiment},
	{"fig5", (*Env).machineTypesExperiment},
	{"fig6", (*Env).durationCDFExperiment},
	{"fig7", (*Env).taskSizeExperiment},
	{"fig9", func(*Env) (*Experiment, error) { return energyCurvesExperiment(), nil }},
	{"fig10-12", (*Env).classSizesExperiment},
	{"fig13-17", (*Env).centroidsExperiment},
	{"fig14-18", (*Env).shortLongExperiment},
	{"fig19", (*Env).arrivalRatesExperiment},
	{"fig20", (*Env).containersExperiment},
	{"fig21", func(e *Env) (*Experiment, error) { return e.serversExperiment(PolicyBaseline) }},
	{"fig22", func(e *Env) (*Experiment, error) { return e.serversExperiment(PolicyCBS) }},
	{"fig23-25", (*Env).policyDelaysExperiment},
	{"fig26", (*Env).energyComparisonExperiment},
}

// ExperimentIDs lists every regenerable figure/table in paper order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, x := range experiments {
		ids[i] = x.id
	}
	return ids
}

// Run regenerates one experiment by id.
func (e *Env) Run(id string) (*Experiment, error) {
	for _, x := range experiments {
		if x.id != id {
			continue
		}
		exp, err := x.run(e)
		if err != nil {
			return nil, err
		}
		exp.ID = id
		return exp, nil
	}
	return nil, fmt.Errorf("harmony: unknown experiment %q", id)
}

func (e *Env) demandExperiment(cpu bool) (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	cpuS, memS, err := trace.DemandSeries(w.Trace, e.binWidth())
	if err != nil {
		return nil, err
	}
	s, title, peak := memS, "Total memory demand over time", "peak memory demand"
	if cpu {
		s, title, peak = cpuS, "Total CPU demand over time", "peak CPU demand"
	}
	return &Experiment{
		Title:   title,
		Series:  []Series{s},
		Summary: map[string]float64{peak: maxY(s.Points)},
	}, nil
}

// binWidth is the control period the simulations run at.
func (e *Env) binWidth() float64 {
	cfg := e.SimCfg
	cfg.defaults()
	return cfg.PeriodSeconds
}

func (e *Env) machineUsageExperiment() (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	res, err := e.simulate(PolicyAlwaysOn)
	if err != nil {
		return nil, err
	}
	avail := Series{Name: "machines available"}
	for _, p := range res.ActiveMachines.Points {
		avail.Points = append(avail.Points, Point{X: p.X, Y: float64(w.NumMachines())})
	}
	// With every machine powered, the interesting curve is how many are
	// actually running at least one task — the paper's observation that
	// the cluster never adjusts capacity to demand.
	return &Experiment{
		Title:  "Machines available vs used (capacity never adjusted)",
		Series: []Series{avail, res.UsedMachines},
		Summary: map[string]float64{
			"machines available": float64(w.NumMachines()),
			"peak machines used": maxY(res.UsedMachines.Points),
		},
	}, nil
}

func (e *Env) delayCDFExperiment() (*Experiment, error) {
	res, err := e.simulate(PolicyAlwaysOn)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "CDF of task scheduling delay by priority group",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		exp.Series = append(exp.Series, res.DelayCDF[g])
		exp.Summary["mean delay "+g.String()+" (s)"] = res.MeanDelaySeconds[g]
	}
	return exp, nil
}

func (e *Env) machineTypesExperiment() (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	hs := trace.MachineHeterogeneity(w.Trace)
	count := Series{Name: "machines per type"}
	cpu := Series{Name: "CPU capacity per type"}
	mem := Series{Name: "memory capacity per type"}
	summary := map[string]float64{}
	for _, h := range hs {
		x := float64(h.Type.ID)
		count.Points = append(count.Points, Point{X: x, Y: float64(h.Type.Count)})
		cpu.Points = append(cpu.Points, Point{X: x, Y: h.Type.CPU})
		mem.Points = append(mem.Points, Point{X: x, Y: h.Type.Mem})
	}
	if len(hs) > 0 {
		summary["types"] = float64(len(hs))
		summary["largest type share"] = hs[0].Fraction
	}
	return &Experiment{
		Title:   "Machine heterogeneity (types, capacities, population)",
		Series:  []Series{count, cpu, mem},
		Summary: summary,
	}, nil
}

func (e *Env) durationCDFExperiment() (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	cdfs := trace.DurationCDFs(w.Trace)
	exp := &Experiment{
		Title:   "CDF of task duration by priority group",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		cdf := cdfs[g]
		exp.Series = append(exp.Series, Series{Name: "duration CDF " + g.String(), Points: cdf.Points(101)})
		exp.Summary["median duration "+g.String()+" (s)"] = cdf.Quantile(0.5)
		exp.Summary["max duration "+g.String()+" (s)"] = cdf.Quantile(1)
	}
	return exp, nil
}

func (e *Env) taskSizeExperiment() (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Task size scatter (CPU vs memory) per priority group",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		pts := trace.SizeScatter(w.Trace, g)
		var minC, maxC float64
		for i, p := range pts {
			if i == 0 || p.X < minC {
				minC = p.X
			}
			if p.X > maxC {
				maxC = p.X
			}
		}
		// Cap the emitted scatter for readability.
		exp.Series = append(exp.Series, Series{Name: "task sizes " + g.String(), Points: pts[:min(len(pts), 2000)]})
		if minC > 0 {
			exp.Summary["CPU size ratio "+g.String()] = maxC / minC
		}
	}
	return exp, nil
}

func energyCurvesExperiment() *Experiment {
	exp := &Experiment{
		Title:   "Machine energy consumption vs CPU usage (Table II models)",
		Summary: map[string]float64{},
	}
	for _, m := range energy.TableII() {
		s := Series{Name: m.Name}
		for _, p := range energy.CurvePoints(m, 11) {
			s.Points = append(s.Points, Point{X: p.CPUUtil, Y: p.Watts})
		}
		exp.Series = append(exp.Series, s)
		exp.Summary[m.Name+" idle W"] = m.IdleWatts
		exp.Summary[m.Name+" peak W"] = m.PeakWatts()
	}
	return exp
}
func (e *Env) classSizesExperiment() (*Experiment, error) {
	c, err := e.Characterization()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Tasks per class for each priority group",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		s := Series{Name: "class sizes " + g.String()}
		for _, cl := range c.Classes() {
			if cl.Group != g {
				continue
			}
			s.Points = append(s.Points, Point{X: float64(cl.ID), Y: float64(cl.Count)})
		}
		exp.Series = append(exp.Series, s)
		exp.Summary["classes "+g.String()] = float64(len(s.Points))
	}
	return exp, nil
}

func (e *Env) centroidsExperiment() (*Experiment, error) {
	c, err := e.Characterization()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Class centroids: mean and stddev of CPU and memory",
		Summary: map[string]float64{},
	}
	accurate := 0
	for _, g := range Groups() {
		cpuMean := Series{Name: "cpu mean " + g.String()}
		cpuStd := Series{Name: "cpu stddev " + g.String()}
		memMean := Series{Name: "mem mean " + g.String()}
		memStd := Series{Name: "mem stddev " + g.String()}
		for _, cl := range c.Classes() {
			if cl.Group != g {
				continue
			}
			x := float64(cl.ID)
			cpuMean.Points = append(cpuMean.Points, Point{X: x, Y: cl.CPU})
			cpuStd.Points = append(cpuStd.Points, Point{X: x, Y: cl.CPUStd})
			memMean.Points = append(memMean.Points, Point{X: x, Y: cl.Mem})
			memStd.Points = append(memStd.Points, Point{X: x, Y: cl.MemStd})
			if cl.CPUStd < cl.CPU && cl.MemStd < cl.Mem {
				accurate++
			}
		}
		exp.Series = append(exp.Series, cpuMean, cpuStd, memMean, memStd)
	}
	exp.Summary["classes with std < mean"] = float64(accurate)
	exp.Summary["classes total"] = float64(len(c.Classes()))
	return exp, nil
}

func (e *Env) shortLongExperiment() (*Experiment, error) {
	c, err := e.Characterization()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Short/long duration sub-classes per class",
		Summary: map[string]float64{},
	}
	short := Series{Name: "short mean duration (s)"}
	long := Series{Name: "long mean duration (s)"}
	split := 0
	for _, cl := range c.Classes() {
		x := float64(cl.ID)
		short.Points = append(short.Points, Point{X: x, Y: cl.SubDurations[0]})
		if len(cl.SubDurations) > 1 {
			long.Points = append(long.Points, Point{X: x, Y: cl.SubDurations[1]})
			split++
		}
	}
	exp.Series = []Series{short, long}
	exp.Summary["classes with short/long split"] = float64(split)
	exp.Summary["classes total"] = float64(len(c.Classes()))
	return exp, nil
}

func (e *Env) arrivalRatesExperiment() (*Experiment, error) {
	w, err := e.Workload()
	if err != nil {
		return nil, err
	}
	rates, err := trace.ArrivalRates(w.Trace, e.binWidth())
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Aggregated task arrival rates per priority group",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		s := rates[g]
		exp.Series = append(exp.Series, s)
		exp.Summary["peak rate "+g.String()+" (tasks/s)"] = maxY(s.Points)
	}
	return exp, nil
}

func (e *Env) containersExperiment() (*Experiment, error) {
	res, err := e.CBSRun()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Containers provisioned per priority group (HARMONY)",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		s := res.Containers[g]
		exp.Series = append(exp.Series, s)
		exp.Summary["peak containers "+g.String()] = maxY(s.Points)
	}
	return exp, nil
}

func (e *Env) serversExperiment(p Policy) (*Experiment, error) {
	res, err := e.simulate(p)
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:  fmt.Sprintf("Active servers over time (%s)", res.Policy),
		Series: []Series{res.ActiveMachines},
		Summary: map[string]float64{
			"peak active machines": maxY(res.ActiveMachines.Points),
			"mean active machines": meanY(res.ActiveMachines.Points),
		},
	}
	if p == PolicyCBS {
		// CBS and CBP provision essentially the same machines; attach
		// CBP's series for completeness.
		cbp, err := e.CBPRun()
		if err != nil {
			return nil, err
		}
		exp.Series = append(exp.Series, cbp.ActiveMachines)
		exp.Summary["mean active machines CBP"] = meanY(cbp.ActiveMachines.Points)
	}
	return exp, nil
}

func (e *Env) policyDelaysExperiment() (*Experiment, error) {
	base, cbs, cbp, err := e.comparisonRuns()
	if err != nil {
		return nil, err
	}
	exp := &Experiment{
		Title:   "Scheduling-delay CDFs per priority group, all policies",
		Summary: map[string]float64{},
	}
	for _, g := range Groups() {
		for _, r := range []*SimulationResult{base, cbp, cbs} {
			exp.Series = append(exp.Series, r.DelayCDF[g])
			exp.Summary[fmt.Sprintf("mean delay %s %s (s)", g, r.Policy)] = r.MeanDelaySeconds[g]
		}
	}
	return exp, nil
}

func (e *Env) energyComparisonExperiment() (*Experiment, error) {
	base, cbs, cbp, err := e.comparisonRuns()
	if err != nil {
		return nil, err
	}
	summary := map[string]float64{
		"baseline energy (kWh)":    base.EnergyKWh,
		"harmony-CBP energy (kWh)": cbp.EnergyKWh,
		"harmony-CBS energy (kWh)": cbs.EnergyKWh,
		"baseline cost ($)":        base.EnergyCost,
		"harmony-CBP cost ($)":     cbp.EnergyCost,
		"harmony-CBS cost ($)":     cbs.EnergyCost,
	}
	if base.EnergyKWh > 0 {
		summary["CBS energy saving vs baseline (%)"] =
			100 * (base.EnergyKWh - cbs.EnergyKWh) / base.EnergyKWh
		summary["CBP energy saving vs baseline (%)"] =
			100 * (base.EnergyKWh - cbp.EnergyKWh) / base.EnergyKWh
	}
	bars := Series{Name: "total energy (kWh) [1=baseline 2=CBP 3=CBS]", Points: []Point{
		{X: 1, Y: base.EnergyKWh}, {X: 2, Y: cbp.EnergyKWh}, {X: 3, Y: cbs.EnergyKWh},
	}}
	return &Experiment{
		Title:   "Total energy consumption: baseline vs CBP vs CBS",
		Series:  []Series{bars},
		Summary: summary,
	}, nil
}

func maxY(pts []Point) float64 {
	mx := 0.0
	for _, p := range pts {
		if p.Y > mx {
			mx = p.Y
		}
	}
	return mx
}

func meanY(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.Y
	}
	return sum / float64(len(pts))
}
