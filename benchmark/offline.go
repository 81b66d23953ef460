package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"harmony"
)

// The offline path: harmony.SimulateStream over a generated stream,
// characterization fitted on a materialized 2 h prefix of the same
// scenario. Everything here goes through the root facade only.

func (rc *runContext) workloadConfig(hours float64) harmony.WorkloadConfig {
	return harmony.WorkloadConfig{
		Seed:           rc.Scenario,
		Hours:          hours,
		TasksPerSecond: rc.W.Rate,
		ClusterScale:   rc.W.Scale,
	}
}

// characterize is the set-up every workload shares: materialize the
// scenario's 2 h prefix and run the two-step clustering on it.
func (rc *runContext) characterize() (*harmony.Characterization, error) {
	w, err := harmony.GenerateWorkload(rc.workloadConfig(prefixHours))
	if err != nil {
		return nil, err
	}
	return w.Characterize(harmony.CharacterizeConfig{Seed: rc.Scenario})
}

// medianSetup runs setup n times and returns the last product and the
// median duration (the contract's setup_s).
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, measurement, error) {
	var last, none T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		// Every set-up starts from the same heap: without this the first
		// pays the heap's growth and the later ones the previous one's
		// garbage, and setup_s flips between two modes 40% apart.
		last = none
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, measurement{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, measurement{V: summarize(secs).Median, Samples: secs}, nil
}

// simRun is one SimulateStream call with its host-side measurements.
type simRun struct {
	res *harmony.SimulationResult
	sm  *harmony.ScaleMetrics
}

func (rc *runContext) simulate(policy harmony.Policy, ch *harmony.Characterization) (simRun, error) {
	res, sm, err := harmony.SimulateStream(
		harmony.StreamConfig{Workload: rc.workloadConfig(rc.Size.Hours)},
		ch, harmony.SimulationConfig{Policy: policy})
	if err != nil {
		return simRun{}, err
	}
	return simRun{res, sm}, nil
}

// fingerprint is every deterministic scalar of a simulated run; two
// runs of one scenario must agree on it bit for bit.
func (r simRun) fingerprint() string {
	res := r.res
	return fmt.Sprintf("%d tasks %v kWh %v+%v$ %d switches %d/%d/%d sched/unsched/done delay %v/%v/%v active %v",
		r.sm.Tasks, res.EnergyKWh, res.EnergyCost, res.SwitchCost, res.SwitchEvents,
		res.Scheduled, res.Unscheduled, res.Completed,
		res.MeanDelaySeconds[harmony.GroupGratis], res.MeanDelaySeconds[harmony.GroupOther],
		res.MeanDelaySeconds[harmony.GroupProduction], seriesMean(res.ActiveMachines))
}

func seriesMean(s harmony.Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

// maxOfflineFailedShare fails the run when the legacy scheduler wedged
// (README "The wedge"): a healthy scenario leaves a few dozen tasks
// unscheduled at the horizon, a wedged one tens of thousands.
const maxOfflineFailedShare = 0.02

// simOutcome turns the repetitions of one offline workload into the
// run's metrics and checks. reps are identical simulations, so the
// simulated numbers come from the first and the host-side ones are
// medians over all of them.
func (rc *runContext) simOutcome(reps []simRun, setup measurement, cpuSeconds float64) *outcome {
	first := reps[0]
	res := first.res
	out := newOutcome()

	var tps, bytesPerTask []float64
	tasks := int64(0)
	for _, r := range reps {
		tps = append(tps, r.sm.TasksPerSecond)
		bytesPerTask = append(bytesPerTask, r.sm.BytesPerTask)
		tasks += r.sm.Tasks
	}
	periods := float64(len(res.ActiveMachines.Points))
	failedShare := float64(res.Unscheduled) / float64(first.sm.Tasks)

	e := out.EndToEnd
	e["setup_s"] = setup
	e.set("ok_share", 1-failedShare)
	e.setN("tasks_per_s", summarize(tps).Median, tps)
	e.set("cpu_ms_per_ktask", 1e6*cpuSeconds/float64(tasks))
	e.set("active_machines_mean", seriesMean(res.ActiveMachines))
	e.set("switches_per_period", float64(res.SwitchEvents)/periods)

	l := out.Layers
	l.set("energy_kwh", res.EnergyKWh)
	l.set("cost_usd_per_ktask", 1000*(res.EnergyCost+res.SwitchCost)/float64(res.Scheduled))
	l.set("delay_prod_mean_s", res.MeanDelaySeconds[harmony.GroupProduction])
	l.setN("alloc_bytes_per_task", summarize(bytesPerTask).Median, bytesPerTask)
	l.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	l.set("sim.periods", periods)
	l.set("sim.switch_events", float64(res.SwitchEvents))
	l.set("sim.peak_heap_mb", float64(first.sm.PeakHeapBytes)/(1<<20))

	out.Attempted = len(reps)
	out.check("conservation", int64(res.Scheduled+res.Unscheduled) == first.sm.Tasks,
		"scheduled %d + unscheduled %d vs %d tasks", res.Scheduled, res.Unscheduled, first.sm.Tasks)
	out.check("healthy", failedShare <= maxOfflineFailedShare,
		"failed_share %.5f (limit %.2f)", failedShare, maxOfflineFailedShare)
	identical := true
	for _, r := range reps[1:] {
		if r.fingerprint() != first.fingerprint() {
			identical = false
		}
	}
	out.check("repetitions_identical", identical, "%d repetitions: %s", len(reps), first.fingerprint())
	return out
}

func runSimCBS(rc *runContext) (*outcome, error) {
	return rc.runSim(harmony.PolicyCBS, func(time.Duration, int) bool { return false })
}

// runSimBaseline repeats the 13 h run back to back until -seconds are
// used up: a longer horizon would wedge the legacy scheduler instead of
// measuring it.
func runSimBaseline(rc *runContext) (*outcome, error) {
	budget := time.Duration(rc.Seconds) * time.Second
	if rc.Smoke {
		budget = 0
	}
	return rc.runSim(harmony.PolicyBaseline, func(elapsed time.Duration, done int) bool {
		return done < rc.Size.MinReps || elapsed < budget
	})
}

func (rc *runContext) runSim(policy harmony.Policy, again func(elapsed time.Duration, done int) bool) (*outcome, error) {
	ch, setup, err := medianSetup(rc.setupReps(), rc.characterize, nil)
	if err != nil {
		return nil, err
	}
	var reps []simRun
	cpu0 := selfCPUSeconds()
	start := time.Now()
	for {
		r, err := rc.simulate(policy, ch)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if !again(time.Since(start), len(reps)) {
			break
		}
	}
	out := rc.simOutcome(reps, setup, selfCPUSeconds()-cpu0)
	out.Measured = time.Since(start).Seconds()
	if rc.Trace {
		var buf bytes.Buffer
		if err := ch.Save(&buf); err != nil {
			return nil, err
		}
		if err := rc.traceSim(out, reps[0], policy, buf.Bytes()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selfCPUSeconds is the user+sys CPU this process has used so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM of a process from /proc, 0 when unreadable.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
