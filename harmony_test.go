package harmony

import (
	"math"
	"strings"
	"testing"
)

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := GenerateWorkload(WorkloadConfig{
		Seed:           11,
		Hours:          3,
		TasksPerSecond: 0.3,
		Cluster:        ClusterTableII,
		ClusterScale:   100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateWorkloadDefaultsAndValidation(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{Seed: 1, Hours: 1, TasksPerSecond: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumMachines() != 10000 {
		t.Errorf("default Table II machines = %d, want 10000", w.NumMachines())
	}
	if w.NumTasks() == 0 {
		t.Error("no tasks generated")
	}
	if _, err := GenerateWorkload(WorkloadConfig{Cluster: Cluster(99)}); err == nil {
		t.Error("bogus cluster accepted")
	}
}

func TestGenerateWorkloadGoogleLike(t *testing.T) {
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 2, Hours: 1, TasksPerSecond: 0.2,
		Cluster: ClusterGoogleLike, ClusterScale: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(w.Trace.Machines); got != 10 {
		t.Errorf("google-like machine types = %d, want 10", got)
	}
	if len(w.Models) != 10 {
		t.Errorf("models = %d, want 10", len(w.Models))
	}
}

func TestCharacterizeFacade(t *testing.T) {
	w := testWorkload(t)
	ch, err := w.Characterize(CharacterizeConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	classes := ch.Classes()
	if len(classes) == 0 {
		t.Fatal("no classes")
	}
	total := 0
	for _, cl := range classes {
		total += cl.Count
		if len(cl.SubDurations) == 0 || len(cl.SubDurations) != len(cl.SubCounts) {
			t.Errorf("class %d sub info inconsistent", cl.ID)
		}
	}
	if total != w.NumTasks() {
		t.Errorf("classified %d of %d tasks", total, w.NumTasks())
	}
	if ch.NumTaskTypes() < len(classes) {
		t.Error("fewer task types than classes")
	}
}

func TestSimulatePolicies(t *testing.T) {
	w := testWorkload(t)
	ch, err := w.Characterize(CharacterizeConfig{Seed: 3, MaxClassesPerGroup: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyAlwaysOn, PolicyBaseline, PolicyCBP, PolicyCBS} {
		res, err := Simulate(w, ch, SimulationConfig{Policy: p, PeriodSeconds: 300})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if res.Policy == "" {
			t.Errorf("%v: empty policy name", p)
		}
		if res.Scheduled+res.Unscheduled != w.NumTasks() {
			t.Errorf("%v: task conservation broken: %d + %d != %d",
				p, res.Scheduled, res.Unscheduled, w.NumTasks())
		}
		if res.EnergyKWh <= 0 {
			t.Errorf("%v: no energy recorded", p)
		}
		if len(res.DelayCDF) != 3 {
			t.Errorf("%v: delay CDFs = %d", p, len(res.DelayCDF))
		}
		if len(res.ActiveMachines.Points) == 0 {
			t.Errorf("%v: empty active series", p)
		}
		if p == PolicyCBS || p == PolicyCBP {
			if res.Containers == nil {
				t.Errorf("%v: no container series", p)
			}
		}
	}
}

// A fleet whose models all idle at 0 W (public fields, so reachable) used
// to get 0/0 = NaN per-type switch costs, which poisoned CBS-RELAX's
// objective. Such a fleet switches for free instead.
func TestSimulateZeroIdleFleet(t *testing.T) {
	w := testWorkload(t)
	ch, err := w.Characterize(CharacterizeConfig{Seed: 3, MaxClassesPerGroup: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Models {
		w.Models[i].IdleWatts = 0
	}
	res, err := Simulate(w, ch, SimulationConfig{Policy: PolicyCBS, PeriodSeconds: 300})
	if err != nil {
		t.Fatalf("zero-idle fleet: %v", err)
	}
	if res.SwitchCost != 0 || math.IsNaN(res.EnergyCost) {
		t.Errorf("zero-idle fleet: switch cost %v (want 0), energy cost %v", res.SwitchCost, res.EnergyCost)
	}
	if res.Scheduled == 0 || res.Scheduled+res.Unscheduled != w.NumTasks() {
		t.Errorf("zero-idle fleet: scheduled %d + unscheduled %d of %d tasks",
			res.Scheduled, res.Unscheduled, w.NumTasks())
	}
}

func TestSimulateValidation(t *testing.T) {
	w := testWorkload(t)
	if _, err := Simulate(nil, nil, SimulationConfig{Policy: PolicyBaseline}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Simulate(w, nil, SimulationConfig{Policy: PolicyCBS}); err == nil {
		t.Error("CBS without characterization accepted")
	}
	if _, err := Simulate(w, nil, SimulationConfig{Policy: Policy(42)}); err == nil {
		t.Error("bogus policy accepted")
	}
}

// NaN is false under the "<= 0 means default" tests and ±Inf is a run
// that never ends: the facade names the field instead of starting one.
func TestNonFiniteConfigRejected(t *testing.T) {
	w := testWorkload(t)
	nan, inf := math.NaN(), math.Inf(1)
	for _, v := range []float64{nan, inf, -inf} {
		for field, wc := range map[string]WorkloadConfig{
			"Hours":          {Hours: v, TasksPerSecond: 0.2, ClusterScale: 100},
			"TasksPerSecond": {Hours: 1, TasksPerSecond: v, ClusterScale: 100},
		} {
			if _, err := GenerateWorkload(wc); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("GenerateWorkload with %s = %v: error %v, want one naming the field", field, v, err)
			}
			if _, _, err := SimulateStream(StreamConfig{Workload: wc}, nil, SimulationConfig{Policy: PolicyBaseline}); err == nil {
				t.Errorf("SimulateStream with %s = %v accepted", field, v)
			}
		}
		if _, err := Simulate(w, nil, SimulationConfig{Policy: PolicyBaseline, PeriodSeconds: v}); err == nil || !strings.Contains(err.Error(), "PeriodSeconds") {
			t.Errorf("Simulate with PeriodSeconds = %v: error %v, want one naming the field", v, err)
		}
	}
	for name, cfg := range map[string]SimulationConfig{
		"NaN boot delay": {Policy: PolicyBaseline, BootDelaySeconds: nan},
		"NaN MTBF":       {Policy: PolicyBaseline, MTBFHours: nan},
		"negative MTBF":  {Policy: PolicyBaseline, MTBFHours: -1},
	} {
		if _, err := Simulate(w, nil, cfg); err == nil {
			t.Errorf("Simulate with %s accepted", name)
		}
	}
}

func TestPolicyString(t *testing.T) {
	tests := []struct {
		p    Policy
		want string
	}{
		{PolicyBaseline, "baseline"},
		{PolicyCBS, "harmony-CBS"},
		{PolicyCBP, "harmony-CBP"},
		{PolicyAlwaysOn, "always-on"},
		{Policy(9), "Policy(9)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

func TestSeriesRender(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{X: 1, Y: 2}, {X: 3, Y: 4}}}
	out := s.Render()
	if !strings.Contains(out, "# series: x (2 points)") {
		t.Errorf("render header missing: %q", out)
	}
}

func TestEnvAnalysisExperiments(t *testing.T) {
	env := NewEnv(
		WorkloadConfig{Seed: 5, Hours: 2, TasksPerSecond: 0.3, ClusterScale: 100},
		CharacterizeConfig{Seed: 5, MaxClassesPerGroup: 4},
		SimulationConfig{PeriodSeconds: 300},
	)
	// The cheap analysis experiments (no policy simulations).
	for _, id := range []string{"fig1", "fig2", "fig5", "fig6", "fig7", "fig9", "fig10-12", "fig13-17", "fig14-18", "fig19"} {
		exp, err := env.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if exp.ID == "" || exp.Title == "" {
			t.Errorf("%s: missing metadata", id)
		}
		if len(exp.Series) == 0 {
			t.Errorf("%s: no series", id)
		}
		if out := exp.Render(); !strings.Contains(out, exp.ID) {
			t.Errorf("%s: render missing id", id)
		}
	}
	if _, err := env.Run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDsRunnable(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 17 {
		t.Errorf("experiment ids = %d, want 17", len(ids))
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestSimulateForecasterValidation(t *testing.T) {
	w := testWorkload(t)
	ch, err := w.Characterize(CharacterizeConfig{Seed: 3, MaxClassesPerGroup: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(w, ch, SimulationConfig{Policy: PolicyCBS, Forecaster: "crystal-ball"}); err == nil {
		t.Error("unknown forecaster accepted")
	}
	for _, f := range []string{"", "arima", "auto-arima", "seasonal", "ewma", "holtwinters"} {
		if _, err := Simulate(w, ch, SimulationConfig{Policy: PolicyCBS, Forecaster: f}); err != nil {
			t.Errorf("forecaster %q rejected: %v", f, err)
		}
	}
}

func TestCharacterizationSaveLoadFacade(t *testing.T) {
	w := testWorkload(t)
	ch, err := w.Characterize(CharacterizeConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := ch.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCharacterization(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTaskTypes() != ch.NumTaskTypes() {
		t.Errorf("task types = %d, want %d", loaded.NumTaskTypes(), ch.NumTaskTypes())
	}
	// A loaded characterization drives a simulation.
	if _, err := Simulate(w, loaded, SimulationConfig{Policy: PolicyCBP}); err != nil {
		t.Errorf("simulate with loaded characterization: %v", err)
	}
}
