package sim

import (
	"math"
	"testing"

	"harmony/internal/energy"
	"harmony/internal/stats"
	"harmony/internal/trace"
)

// staticPolicy always requests the same machine counts and quotas.
type staticPolicy struct {
	name   string
	target []int
	quota  [][]int
	rcpu   []float64
	rmem   []float64
}

func (p *staticPolicy) Name() string { return p.name }
func (p *staticPolicy) Period(*Observation) Directive {
	return Directive{TargetActive: p.target, Quota: p.quota, ReserveCPU: p.rcpu, ReserveMem: p.rmem}
}

// recorderPolicy captures observations.
type recorderPolicy struct {
	staticPolicy
	obs []*Observation
}

func (p *recorderPolicy) Period(o *Observation) Directive {
	p.obs = append(p.obs, o)
	return p.staticPolicy.Period(o)
}

func simTrace(tasks []trace.Task, horizon float64) *trace.Trace {
	tr := &trace.Trace{
		Machines: []trace.MachineType{
			{ID: 1, CPU: 0.5, Mem: 0.5, Count: 2},
			{ID: 2, CPU: 1, Mem: 1, Count: 1},
		},
		Tasks:   tasks,
		Horizon: horizon,
	}
	tr.SortTasks()
	return tr
}

func simModels() []energy.Model {
	return []energy.Model{
		{Name: "small", CPUCap: 0.5, MemCap: 0.5, IdleWatts: 100, AlphaCPU: 50, AlphaMem: 20},
		{Name: "big", CPUCap: 1, MemCap: 1, IdleWatts: 200, AlphaCPU: 100, AlphaMem: 40},
	}
}

func baseConfig(tr *trace.Trace, p Policy) Config {
	return Config{
		Source:   trace.NewSliceSource(tr),
		Models:   simModels(),
		Price:    energy.FlatPrice(0.10),
		Policy:   p,
		Period:   100,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
}

func TestValidateConfig(t *testing.T) {
	tr := simTrace(nil, 1000)
	good := baseConfig(tr, &staticPolicy{name: "x", target: []int{1, 1}})
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no trace", func(c *Config) { c.Source = nil }},
		{"model mismatch", func(c *Config) { c.Models = c.Models[:1] }},
		{"no price", func(c *Config) { c.Price = nil }},
		{"no policy", func(c *Config) { c.Policy = nil }},
		{"zero period", func(c *Config) { c.Period = 0 }},
		{"NaN period", func(c *Config) { c.Period = math.NaN() }},
		{"infinite period", func(c *Config) { c.Period = math.Inf(1) }},
		{"NaN boot delay", func(c *Config) { c.BootDelay = math.NaN() }},
		{"negative boot delay", func(c *Config) { c.BootDelay = -1 }},
		{"infinite boot delay", func(c *Config) { c.BootDelay = math.Inf(1) }},
		{"no type map", func(c *Config) { c.TypeOf = nil }},
		{"bad switch cost", func(c *Config) { c.SwitchCost = []float64{1} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := good
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunSchedulesAndCompletes(t *testing.T) {
	tasks := []trace.Task{
		{ID: 1, Submit: 10, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 0},
		{ID: 2, Submit: 20, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 10},
	}
	tr := simTrace(tasks, 1000)
	res, err := Run(baseConfig(tr, &staticPolicy{name: "on", target: []int{2, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 || res.Completed != 2 || res.Unscheduled != 0 {
		t.Errorf("scheduled=%d completed=%d unscheduled=%d", res.Scheduled, res.Completed, res.Unscheduled)
	}
	// Machines on from period 0: delays are 0 for both.
	if d := res.DelayByGroup[trace.Gratis].Quantile(1); d != 0 {
		t.Errorf("gratis delay = %v, want 0", d)
	}
	if res.EnergyKWh <= 0 || res.EnergyCost <= 0 {
		t.Errorf("no energy recorded: %v kWh, $%v", res.EnergyKWh, res.EnergyCost)
	}
}

func TestRunNoMachinesMeansNoScheduling(t *testing.T) {
	tasks := []trace.Task{{ID: 1, Submit: 10, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 0}}
	tr := simTrace(tasks, 500)
	res, err := Run(baseConfig(tr, &staticPolicy{name: "off", target: []int{0, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 0 || res.Unscheduled != 1 {
		t.Errorf("scheduled=%d unscheduled=%d", res.Scheduled, res.Unscheduled)
	}
	if res.EnergyKWh != 0 {
		t.Errorf("energy with all machines off: %v", res.EnergyKWh)
	}
	// The censored task records its wait.
	if res.DelayByGroup[trace.Gratis].Len() != 1 {
		t.Error("censored delay missing")
	}
}

func TestRunDelayMeasured(t *testing.T) {
	// One machine; first task occupies it fully; second waits until done.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 300, CPU: 0.9, Mem: 0.9, Priority: 0},
		{ID: 2, Submit: 50, Duration: 100, CPU: 0.9, Mem: 0.9, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  2000,
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "one", target: []int{1}},
		Period:   100,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2 {
		t.Fatalf("scheduled = %d", res.Scheduled)
	}
	// Task 2 waited from t=50 until t=300 -> 250s.
	max := res.DelayByGroup[trace.Gratis].Quantile(1)
	if max != 250 {
		t.Errorf("max delay = %v, want 250", max)
	}
}

func TestRunPriorityOrdering(t *testing.T) {
	// Capacity for one task at a time; gratis arrives first but
	// production should be scheduled first when both are queued.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 100, CPU: 0.9, Mem: 0.9, Priority: 0},   // occupies machine
		{ID: 2, Submit: 10, Duration: 100, CPU: 0.9, Mem: 0.9, Priority: 0},  // gratis, queued
		{ID: 3, Submit: 20, Duration: 100, CPU: 0.9, Mem: 0.9, Priority: 10}, // production, queued later
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 1}},
		Tasks:    tasks,
		Horizon:  1000,
	}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:    energy.FlatPrice(0.1),
		Policy:   &staticPolicy{name: "one", target: []int{1}},
		Period:   50,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Production got the machine at t=100 (delay 80); gratis at t=200
	// (delay 190).
	prodDelay := res.DelayByGroup[trace.Production].Quantile(1)
	gratisMax := res.DelayByGroup[trace.Gratis].Quantile(1)
	if prodDelay != 80 {
		t.Errorf("production delay = %v, want 80", prodDelay)
	}
	if gratisMax != 190 {
		t.Errorf("gratis max delay = %v, want 190", gratisMax)
	}
}

func TestRunQuotaEnforced(t *testing.T) {
	// Quota forbids type 0 on machine type 0 (small), allows on big.
	tasks := []trace.Task{
		{ID: 1, Submit: 10, Duration: 400, CPU: 0.2, Mem: 0.2, Priority: 0},
		{ID: 2, Submit: 11, Duration: 400, CPU: 0.2, Mem: 0.2, Priority: 0},
	}
	tr := simTrace(tasks, 1000)
	quota := [][]int{{0}, {1}} // none on small, one on big
	res, err := Run(baseConfig(tr, &staticPolicy{name: "quota", target: []int{2, 1}, quota: quota}))
	if err != nil {
		t.Fatal(err)
	}
	// Only one task can run concurrently (big machine, quota 1); the
	// second waits the full 400s even though small machines are free.
	if res.Scheduled != 2 {
		t.Fatalf("scheduled = %d", res.Scheduled)
	}
	max := res.DelayByGroup[trace.Gratis].Quantile(1)
	if max < 399-1e-6 {
		t.Errorf("quota not enforced: max delay %v, want ~399", max)
	}
}

func TestRunReservationInflatesFootprint(t *testing.T) {
	// Two tiny tasks with a 0.5 container reservation: the 0.5/0.5
	// machine fits only one at a time per machine.
	tasks := []trace.Task{
		{ID: 1, Submit: 0, Duration: 200, CPU: 0.05, Mem: 0.05, Priority: 0},
		{ID: 2, Submit: 1, Duration: 200, CPU: 0.05, Mem: 0.05, Priority: 0},
		{ID: 3, Submit: 2, Duration: 200, CPU: 0.05, Mem: 0.05, Priority: 0},
	}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 0.5, Mem: 0.5, Count: 2}},
		Tasks:    tasks,
		Horizon:  1000,
	}
	cfg := Config{
		Source: trace.NewSliceSource(tr),
		Models: []energy.Model{{CPUCap: 0.5, MemCap: 0.5, IdleWatts: 100, AlphaCPU: 50, AlphaMem: 20}},
		Price:  energy.FlatPrice(0.1),
		Policy: &staticPolicy{
			name: "resv", target: []int{2},
			rcpu: []float64{0.5}, rmem: []float64{0.5},
		},
		Period:   100,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two run immediately (one per machine); the third waits ~198s.
	max := res.DelayByGroup[trace.Gratis].Quantile(1)
	if max < 100 {
		t.Errorf("reservation not enforced: max delay = %v", max)
	}
}

func TestRunObservationContents(t *testing.T) {
	tasks := []trace.Task{
		{ID: 1, Submit: 10, Duration: 500, CPU: 0.3, Mem: 0.2, Priority: 0},
	}
	tr := simTrace(tasks, 350)
	rec := &recorderPolicy{staticPolicy: staticPolicy{name: "rec", target: []int{2, 1}}}
	if _, err := Run(baseConfig(tr, rec)); err != nil {
		t.Fatal(err)
	}
	if len(rec.obs) < 3 {
		t.Fatalf("observations = %d", len(rec.obs))
	}
	// Period 1 (t=100) sees the arrival of task 1 during period 0.
	if rec.obs[1].Arrivals[0] != 1 {
		t.Errorf("arrivals = %v", rec.obs[1].Arrivals)
	}
	// Task runs: running demand visible.
	if rec.obs[1].RunningDemandCPU != 0.3 {
		t.Errorf("running demand = %v", rec.obs[1].RunningDemandCPU)
	}
	if rec.obs[1].Active[0] != 2 || rec.obs[1].Active[1] != 1 {
		t.Errorf("active = %v", rec.obs[1].Active)
	}
}

func TestRunSwitchCostsCounted(t *testing.T) {
	tasks := []trace.Task{{ID: 1, Submit: 10, Duration: 50, CPU: 0.3, Mem: 0.3, Priority: 0}}
	tr := simTrace(tasks, 300)
	cfg := baseConfig(tr, &staticPolicy{name: "on", target: []int{2, 1}})
	cfg.SwitchCost = []float64{0.5, 1.0}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Three machines powered on at period 0: 2×0.5 + 1×1.0 = 2.
	if res.SwitchEvents != 3 {
		t.Errorf("switch events = %d, want 3", res.SwitchEvents)
	}
	if res.SwitchCost != 2 {
		t.Errorf("switch cost = %v, want 2", res.SwitchCost)
	}
}

func TestRunBusyMachineNotPoweredOff(t *testing.T) {
	// Policy turns everything on in period 0, off afterwards; the
	// long-running task keeps its machine alive.
	tasks := []trace.Task{{ID: 1, Submit: 1, Duration: 5000, CPU: 0.9, Mem: 0.9, Priority: 0}}
	tr := &trace.Trace{
		Machines: []trace.MachineType{{ID: 1, CPU: 1, Mem: 1, Count: 2}},
		Tasks:    tasks,
		Horizon:  1000,
	}
	flip := &flipPolicy{}
	cfg := Config{
		Source:   trace.NewSliceSource(tr),
		Models:   []energy.Model{{CPUCap: 1, MemCap: 1, IdleWatts: 100, AlphaCPU: 100, AlphaMem: 40}},
		Price:    energy.FlatPrice(0.1),
		Policy:   flip,
		Period:   100,
		NumTypes: 1,
		TypeOf:   func(trace.Task) int { return 0 },
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// After the flip the active series must stay at 1 (the busy machine),
	// not 0.
	var sawOne bool
	for _, p := range res.ActiveSeries.Points[2:] {
		if p.Y == 1 {
			sawOne = true
		}
		if p.Y == 0 {
			t.Fatalf("busy machine was powered off at t=%v", p.X)
		}
	}
	if !sawOne {
		t.Error("active series never settled at 1")
	}
}

type flipPolicy struct{ calls int }

func (f *flipPolicy) Name() string { return "flip" }
func (f *flipPolicy) Period(*Observation) Directive {
	f.calls++
	if f.calls == 1 {
		return Directive{TargetActive: []int{2}}
	}
	return Directive{TargetActive: []int{0}}
}

func TestMeanDelay(t *testing.T) {
	r := &Result{DelayByGroup: map[trace.PriorityGroup]*stats.CDF{
		trace.Gratis: stats.NewCDF([]float64{0, 10, 20}),
	}}
	if got := r.MeanDelay(trace.Gratis); got != 10 {
		t.Errorf("MeanDelay = %v, want 10", got)
	}
	if got := r.MeanDelay(trace.Production); got != 0 {
		t.Errorf("MeanDelay(empty) = %v", got)
	}
}

// Conservation: every task is scheduled or unscheduled, completions
// never exceed schedules, and each task leaves exactly one delay sample
// (a task starts at most once; one still queued at the horizon is
// censored there).
func TestRunConservation(t *testing.T) {
	cfg := genConfig(t, 3)
	n := int(cfg.Source.Meta().Tasks)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled+res.Unscheduled != n {
		t.Errorf("scheduled %d + unscheduled %d != tasks %d",
			res.Scheduled, res.Unscheduled, n)
	}
	if res.Completed > res.Scheduled {
		t.Errorf("completed %d > scheduled %d", res.Completed, res.Scheduled)
	}
	total := 0
	for _, g := range trace.Groups() {
		total += res.DelayByGroup[g].Len()
	}
	if total != n {
		t.Errorf("delay samples %d != tasks %d", total, n)
	}
}
