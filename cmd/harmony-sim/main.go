// Command harmony-sim runs one end-to-end cluster simulation — synthetic
// workload, characterization, and a chosen provisioning policy — and
// prints the headline measurements (energy, scheduling delays, machine
// usage).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"harmony"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("harmony-sim", flag.ContinueOnError)
	var (
		traceIn = fs.String("trace", "", "run on a trace file (from tracegen) instead of generating one")
		seed    = fs.Int64("seed", 1, "RNG seed")
		hours   = fs.Float64("hours", 12, "workload length in hours")
		rate    = fs.Float64("rate", 0.8, "task arrival rate (tasks/second)")
		scale   = fs.Int("scale", 40, "cluster scale divisor (Table II has 10000 machines at scale 1)")
		policy  = fs.String("policy", "cbs", "policy: baseline | cbs | cbp | always-on")
		period  = fs.Float64("period", 300, "control period in seconds")
		horizon = fs.Int("horizon", 0, "MPC look-ahead periods (0 = default 2)")
		epsilon = fs.Float64("epsilon", 0, "container-sizing overflow bound (0 = default 0.25)")
		omega   = fs.Float64("omega", 0, "over-provisioning factor (0 = default 1.05)")
		diurnal = fs.Bool("diurnal-price", false, "use a sinusoidal daily electricity price")
		series  = fs.Bool("series", false, "also print the active-machine time series")

		stream = fs.Bool("stream", false, "stream the generated workload through the simulator "+
			"(constant memory; incompatible with -trace)")
		delaySamples = fs.Int("delay-samples", 0, "streaming mode: per-group delay-CDF reservoir size "+
			"(0 = default 100000, negative = exact)")
		sampleHours = fs.Float64("sample-hours", 2, "streaming mode: hours of materialized sample to characterize for cbs/cbp")
		maxHeapMB   = fs.Float64("max-heap-mb", 0, "fail if the sampled peak heap exceeds this many MiB (0 = no cap)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// NaN fails every comparison: a NaN cap would never trip and a NaN
	// sample length would characterize the whole workload.
	for _, f := range []struct {
		name string
		v    float64
	}{{"max-heap-mb", *maxHeapMB}, {"sample-hours", *sampleHours}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("-%s must be finite and non-negative, got %v", f.name, f.v)
		}
	}
	// The facade would quietly replace a non-positive length, rate or
	// period with its default; NaN and ±Inf fall through to its finite
	// checks.
	for _, f := range []struct {
		name string
		v    float64
	}{{"hours", *hours}, {"rate", *rate}, {"period", *period}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s must be positive, got %v", f.name, f.v)
		}
	}
	if *horizon < 0 {
		return fmt.Errorf("-horizon must be non-negative, got %d", *horizon)
	}
	if *scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", *scale)
	}

	var p harmony.Policy
	switch *policy {
	case "baseline":
		p = harmony.PolicyBaseline
	case "cbs":
		p = harmony.PolicyCBS
	case "cbp":
		p = harmony.PolicyCBP
	case "always-on":
		p = harmony.PolicyAlwaysOn
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	wcfg := harmony.WorkloadConfig{
		Seed:           *seed,
		Hours:          *hours,
		TasksPerSecond: *rate,
		Cluster:        harmony.ClusterTableII,
		ClusterScale:   *scale,
	}
	simCfg := harmony.SimulationConfig{
		Policy:        p,
		PeriodSeconds: *period,
		Horizon:       *horizon,
		Epsilon:       *epsilon,
		Omega:         *omega,
		DiurnalPrice:  *diurnal,
	}

	if *stream {
		if *traceIn != "" {
			return fmt.Errorf("-stream generates its workload; it cannot be combined with -trace")
		}
		return runStream(out, wcfg, simCfg, *delaySamples, *sampleHours, *maxHeapMB)
	}

	var (
		w   *harmony.Workload
		err error
	)
	if *traceIn != "" {
		w, err = harmony.LoadWorkload(*traceIn)
	} else {
		w, err = harmony.GenerateWorkload(wcfg)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: %d tasks, %d machines\n", w.NumTasks(), w.NumMachines())

	var ch *harmony.Characterization
	if p == harmony.PolicyCBS || p == harmony.PolicyCBP {
		ch, err = w.Characterize(harmony.CharacterizeConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "characterization: %d classes, %d task types\n",
			len(ch.Classes()), ch.NumTaskTypes())
	}

	res, err := harmony.Simulate(w, ch, simCfg)
	if err != nil {
		return err
	}

	printResults(out, res, *series)
	return nil
}

func printResults(out io.Writer, res *harmony.SimulationResult, series bool) {
	fmt.Fprintf(out, "\n%s results:\n", res.Policy)
	fmt.Fprintf(out, "  energy:        %.2f kWh ($%.2f)\n", res.EnergyKWh, res.EnergyCost)
	fmt.Fprintf(out, "  switching:     %d events ($%.2f)\n", res.SwitchEvents, res.SwitchCost)
	fmt.Fprintf(out, "  tasks:         %d scheduled, %d unscheduled, %d completed\n",
		res.Scheduled, res.Unscheduled, res.Completed)
	for _, g := range harmony.Groups() {
		fmt.Fprintf(out, "  %-10s mean delay %8.1f s\n", g, res.MeanDelaySeconds[g])
	}
	if series {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.ActiveMachines.Render())
	}
}

// runStream runs the streaming entry point: the workload flows through
// the simulator chunk by chunk, so the full trace is never in memory.
// The HARMONY policies still need a characterization, which comes from
// a short materialized sample of the same workload.
func runStream(out io.Writer, wcfg harmony.WorkloadConfig, simCfg harmony.SimulationConfig,
	delaySamples int, sampleHours, maxHeapMB float64) error {
	var ch *harmony.Characterization
	if p := simCfg.Policy; p == harmony.PolicyCBS || p == harmony.PolicyCBP {
		sampleCfg := wcfg
		if sampleHours > 0 && sampleHours < sampleCfg.Hours {
			sampleCfg.Hours = sampleHours
		}
		sample, err := harmony.GenerateWorkload(sampleCfg)
		if err != nil {
			return err
		}
		ch, err = sample.Characterize(harmony.CharacterizeConfig{Seed: wcfg.Seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "characterization (%.1fh sample): %d classes, %d task types\n",
			sampleCfg.Hours, len(ch.Classes()), ch.NumTaskTypes())
	}

	res, metrics, err := harmony.SimulateStream(harmony.StreamConfig{
		Workload:        wcfg,
		MaxDelaySamples: delaySamples,
	}, ch, simCfg)
	if err != nil {
		return err
	}

	printResults(out, res, false)
	peakMB := float64(metrics.PeakHeapBytes) / (1 << 20)
	fmt.Fprintf(out, "\nscale metrics (streamed):\n")
	fmt.Fprintf(out, "  tasks:         %d\n", metrics.Tasks)
	fmt.Fprintf(out, "  wall time:     %.2f s (%.0f tasks/s)\n", metrics.WallSeconds, metrics.TasksPerSecond)
	fmt.Fprintf(out, "  allocation:    %.0f bytes/task\n", metrics.BytesPerTask)
	fmt.Fprintf(out, "  peak heap:     %.1f MiB\n", peakMB)
	if maxHeapMB > 0 && peakMB > maxHeapMB {
		return fmt.Errorf("peak heap %.1f MiB exceeds cap %.1f MiB", peakMB, maxHeapMB)
	}
	return nil
}
