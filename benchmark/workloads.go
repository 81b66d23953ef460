package main

import (
	"fmt"
	"math"
	"time"
)

// workload is one named set of inputs. The scenario fields fix the
// statistical identity of the traffic; size turns the contract's
// -seconds into an amount of work so the measured phase lasts about
// that long on the reference 2-core box (README "Sizing").
type workload struct {
	Name string
	Why  string
	// Scenario: trace generator rate (tasks/s of model time) and the
	// Table II divisor. The offline policy is set per run function.
	Rate  float64
	Scale int
	run   func(*runContext) (*outcome, error)
}

var workloads = []workload{
	{
		Name: "sim_cbs_5d",
		Why:  "offline, control path does the work: sched.Harmony.Period (warm CBS-RELAX, ARIMA refit on unbounded history) is ~85% of wall, sim ~10%; long enough for per-tick growth and SLO drift to show",
		Rate: 0.8, Scale: 40,
		run: runSimCBS,
	},
	{
		Name: "sim_baseline_fleet",
		Why:  "offline, bypasses sched.Harmony/forecast/queueing/core/lp: sim placement on 10,000 machines ~90% of wall, trace generation ~8%; an LP or forecast change must not move it",
		Rate: 3, Scale: 1,
		run: runSimBaseline,
	},
	{
		Name: "online_replay",
		Why:  "online, live regime, open loop: single-tenant harmonyd ~15% busy, NDJSON POSTs at due times then one tick per 100 ms period; ingest and tick latency each isolate one group of layers",
		Rate: 2.5, Scale: 1,
		run: runOnlineReplay,
	},
	{
		Name: "online_tenants_catchup",
		Why:  "online, the other HTTP server (tenant.Server), closed loop: three tenants in two groups pushed as fast as responses return, a 50 Hz reader beside the writer, per-group ticks (harmonyd on one thread)",
		Rate: 2.5, Scale: 1,
		run: runOnlineTenants,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	periodSeconds  = 300.0 // model seconds per control period (every default)
	periodsPerHour = 3600 / periodSeconds
	prefixHours    = 2.0 // materialized sample the characterization is fitted on
	setupReps      = 3   // set-ups per run; setup_s is their median
)

// Work per second of -seconds, calibrated on unmodified code on the
// reference box. Sizing down means fewer model hours, never a lower rate.
const (
	cbsHoursPerSecond     = 6.0  // sim_cbs_5d: 90 h ~ 15 s, 120 h ~ 25 s (per-tick cost grows with history)
	baselineHours         = 13.0 // sim_baseline_fleet: fixed horizon, repeated (README "The wedge")
	replayPeriodWall      = 100 * time.Millisecond
	tenantsHoursPerSecond = 4.8 // online_tenants_catchup (harmonyd on one thread): 72 h ~ 15 s, 96 h ~ 24 s
)

// size is the amount of work of one run.
type size struct {
	Hours      float64       // model hours of trace
	Periods    int           // control periods in Hours
	MinReps    int           // sim_baseline_fleet: repetitions at least
	PeriodWall time.Duration // online_replay: wall time per period
}

func (w workload) size(seconds int, smoke bool) size {
	var s size
	switch w.Name {
	case "sim_cbs_5d":
		s.Hours = cbsHoursPerSecond * float64(seconds)
		if smoke {
			s.Hours = 6
		}
	case "sim_baseline_fleet":
		s.Hours, s.MinReps = baselineHours, 3
		if smoke {
			s.Hours, s.MinReps = 2, 2
		}
	case "online_replay":
		s.PeriodWall = replayPeriodWall
		s.Hours = float64(seconds) * float64(time.Second/replayPeriodWall) / periodsPerHour
		if smoke {
			s.PeriodWall, s.Hours = 20*time.Millisecond, 2.5
		}
	case "online_tenants_catchup":
		s.Hours = tenantsHoursPerSecond * float64(seconds)
		if smoke {
			s.Hours = 2.5
		}
	}
	s.Periods = int(math.Round(s.Hours * periodsPerHour))
	s.Hours = float64(s.Periods) / periodsPerHour
	return s
}
