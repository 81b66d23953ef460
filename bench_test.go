package harmony

import (
	"fmt"
	"sync"
	"testing"
)

// benchEnv is the shared experiment environment used by the per-figure
// benchmarks. It is small enough that the full evaluation (three policy
// simulations) completes in seconds; the Env caches the workload,
// characterization, and simulations, so per-figure regeneration cost is
// what each benchmark measures.
var (
	benchOnce sync.Once
	benchE    *Env
)

func benchEnvironment() *Env {
	benchOnce.Do(func() {
		benchE = NewEnv(
			WorkloadConfig{
				Seed:           1,
				Hours:          4,
				TasksPerSecond: 0.4,
				Cluster:        ClusterTableII,
				ClusterScale:   50,
			},
			CharacterizeConfig{Seed: 1, MaxClassesPerGroup: 8},
			SimulationConfig{PeriodSeconds: 300},
		)
	})
	return benchE
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	env := benchEnvironment()
	// Warm the caches outside the timed region.
	if _, err := env.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper figure/table (see DESIGN.md experiment index).

func BenchmarkFig1CPUDemand(b *testing.B)        { benchExperiment(b, "fig1") }
func BenchmarkFig2MemDemand(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3MachineUsage(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4DelayCDF(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5MachineTypes(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6DurationCDF(b *testing.B)      { benchExperiment(b, "fig6") }
func BenchmarkFig7TaskSizes(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig9EnergyCurves(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10to12ClassSizes(b *testing.B)  { benchExperiment(b, "fig10-12") }
func BenchmarkFig13to17Centroids(b *testing.B)   { benchExperiment(b, "fig13-17") }
func BenchmarkFig14to18ShortLong(b *testing.B)   { benchExperiment(b, "fig14-18") }
func BenchmarkFig19ArrivalRates(b *testing.B)    { benchExperiment(b, "fig19") }
func BenchmarkFig20Containers(b *testing.B)      { benchExperiment(b, "fig20") }
func BenchmarkFig21BaselineServers(b *testing.B) { benchExperiment(b, "fig21") }
func BenchmarkFig22CBSServers(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkFig23to25PolicyDelays(b *testing.B) {
	benchExperiment(b, "fig23-25")
}
func BenchmarkFig26Energy(b *testing.B) { benchExperiment(b, "fig26") }

// End-to-end pipeline benchmarks: the real cost of one simulated run per
// policy (workload and characterization are reused; the simulation runs
// fresh each iteration).
func BenchmarkSimulatePolicy(b *testing.B) {
	env := benchEnvironment()
	w, err := env.Workload()
	if err != nil {
		b.Fatal(err)
	}
	ch, err := env.Characterization()
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []Policy{PolicyBaseline, PolicyCBP, PolicyCBS} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(w, ch, SimulationConfig{Policy: p, PeriodSeconds: 300}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benchmarks for the design knobs DESIGN.md calls out. Each
// sub-benchmark reports the measured energy and mean production delay via
// b.ReportMetric, so a bench run doubles as an ablation table.
func BenchmarkAblationOmega(b *testing.B) {
	env := benchEnvironment()
	w, _ := env.Workload()
	ch, _ := env.Characterization()
	for _, omega := range []float64{1.0, 1.1, 1.3, 1.5} {
		b.Run(fmt.Sprintf("omega=%.1f", omega), func(b *testing.B) {
			var res *SimulationResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Simulate(w, ch, SimulationConfig{
					Policy: PolicyCBS, PeriodSeconds: 300, Omega: omega,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh, "kWh")
			b.ReportMetric(res.MeanDelaySeconds[GroupProduction], "s-prod-delay")
		})
	}
}

func BenchmarkAblationEpsilon(b *testing.B) {
	env := benchEnvironment()
	w, _ := env.Workload()
	ch, _ := env.Characterization()
	for _, eps := range []float64{0.05, 0.15, 0.25, 0.40} {
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var res *SimulationResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Simulate(w, ch, SimulationConfig{
					Policy: PolicyCBS, PeriodSeconds: 300, Epsilon: eps,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh, "kWh")
			b.ReportMetric(res.MeanDelaySeconds[GroupProduction], "s-prod-delay")
		})
	}
}

func BenchmarkAblationHorizon(b *testing.B) {
	env := benchEnvironment()
	w, _ := env.Workload()
	ch, _ := env.Characterization()
	for _, horizon := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("W=%d", horizon), func(b *testing.B) {
			var res *SimulationResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Simulate(w, ch, SimulationConfig{
					Policy: PolicyCBS, PeriodSeconds: 300, Horizon: horizon,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh, "kWh")
			b.ReportMetric(res.SwitchCost, "$-switch")
		})
	}
}

// BenchmarkAblationFailures measures how the CBS pipeline degrades under
// injected machine failures (the monitoring module's failure reports in
// the paper's architecture).
func BenchmarkAblationFailures(b *testing.B) {
	env := benchEnvironment()
	w, _ := env.Workload()
	ch, _ := env.Characterization()
	for _, mtbf := range []float64{0, 100, 20} {
		b.Run(fmt.Sprintf("mtbf=%vh", mtbf), func(b *testing.B) {
			var res *SimulationResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Simulate(w, ch, SimulationConfig{
					Policy: PolicyCBS, PeriodSeconds: 300, MTBFHours: mtbf,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Failures), "failures")
			b.ReportMetric(float64(res.TasksKilled), "killed")
			b.ReportMetric(res.MeanDelaySeconds[GroupProduction], "s-prod-delay")
		})
	}
}

// BenchmarkAblationForecaster compares the arrival-rate predictors (the
// paper uses ARIMA; seasonal-naive and EWMA are the natural baselines).
func BenchmarkAblationForecaster(b *testing.B) {
	env := benchEnvironment()
	w, _ := env.Workload()
	ch, _ := env.Characterization()
	for _, f := range []string{"arima", "auto-arima", "seasonal", "ewma"} {
		b.Run(f, func(b *testing.B) {
			var res *SimulationResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Simulate(w, ch, SimulationConfig{
					Policy: PolicyCBS, PeriodSeconds: 300, Forecaster: f,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh, "kWh")
			b.ReportMetric(res.MeanDelaySeconds[GroupProduction], "s-prod-delay")
		})
	}
}
