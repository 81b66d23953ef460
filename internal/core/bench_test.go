package core

import (
	"math/rand"
	"testing"

	"harmony/internal/lp"
)

// benchPeriods is how many consecutive control periods the SolveRelaxed
// benchmarks rotate through: the dual repair a warm start needs varies
// from a handful of pivots to several dozen between one period and the
// next, so a single pair of periods would time the luck of its draw.
const benchPeriods = 8

// benchSequence returns benchPeriods+1 consecutive MPC periods at the
// shape the benchmark's sim_cbs_5d workload captures from the real loop:
// 10 machine types, 66 container types, a 2-period horizon (344 rows,
// ~1.5k structural columns) — large enough that the per-solve basis
// work (factoring, FTRAN/BTRAN, the certificate), not the pivot count
// alone, decides whether a warm start pays.
// The controller is advanced a few periods first so the sequence
// reflects the steady state every production control period lives in:
// the forecast window slid by one, the initial machine state taken from
// the realized decision.
func benchSequence() []*PlanInput {
	r := rand.New(rand.NewSource(42))
	in := randomSized(r, 10, 66, 2)
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	const settle = 3
	var seq []*PlanInput
	for period := 0; period < settle+benchPeriods+1; period++ {
		if period >= settle {
			seq = append(seq, in)
		}
		plan, err := SolveRelaxed(in)
		if err != nil {
			panic(err)
		}
		dec, err := ctrl.Realize(plan)
		if err != nil {
			panic(err)
		}
		in = shiftWindow(r, in, dec)
	}
	return seq
}

// shiftWindow builds period t+1's input from period t's: the forecast
// window slides by one and every entry is revised by up to ±20% (the
// loop refits its forecasters each period, so the whole window moves,
// not only its tail — that revision is what sends the warm start
// through tens of dual-repair pivots, as in the real loop), and the
// initial machine state is the decision the controller just realized.
func shiftWindow(r *rand.Rand, in *PlanInput, dec *Decision) *PlanInput {
	out := &PlanInput{
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon,
		Machines: in.Machines, Containers: in.Containers,
		Demand:        make([][]float64, len(in.Demand)),
		Price:         make([]float64, len(in.Price)),
		InitialActive: make([]float64, len(in.InitialActive)),
	}
	for n, row := range in.Demand {
		out.Demand[n] = make([]float64, len(row))
		copy(out.Demand[n], row[1:])
		out.Demand[n][len(row)-1] = row[len(row)-1]
		for t, d := range out.Demand[n] {
			out.Demand[n][t] = float64(int(d * (0.8 + r.Float64()*0.4)))
		}
	}
	copy(out.Price, in.Price[1:])
	last := len(in.Price) - 1
	out.Price[last] = in.Price[last] * (0.98 + r.Float64()*0.04)
	for m := range out.InitialActive {
		out.InitialActive[m] = float64(dec.ActiveMachines[m])
	}
	return out
}

// randomSized is randomInput with explicit dimensions.
func randomSized(r *rand.Rand, nm, nn, w int) *PlanInput {
	in := &PlanInput{PeriodSeconds: 300, Horizon: w}
	for m := 0; m < nm; m++ {
		in.Machines = append(in.Machines, MachineSpec{
			Type:       m + 1,
			CPU:        0.3 + r.Float64()*0.7,
			Mem:        0.3 + r.Float64()*0.7,
			Available:  20 + r.Intn(60),
			IdleWatts:  50 + r.Float64()*250,
			AlphaCPU:   50 + r.Float64()*250,
			AlphaMem:   10 + r.Float64()*80,
			SwitchCost: r.Float64() * 0.01,
		})
	}
	for n := 0; n < nn; n++ {
		in.Containers = append(in.Containers, ContainerSpec{
			Type:  n,
			CPU:   0.02 + r.Float64()*0.3,
			Mem:   0.02 + r.Float64()*0.3,
			Value: 0.05 + r.Float64()*0.2,
			Omega: 1 + r.Float64()*0.3,
		})
	}
	in.Demand = make([][]float64, nn)
	for n := range in.Demand {
		in.Demand[n] = make([]float64, w)
		for t := range in.Demand[n] {
			in.Demand[n][t] = float64(r.Intn(150))
		}
	}
	in.Price = make([]float64, w)
	for t := range in.Price {
		in.Price[t] = 0.05 + r.Float64()*0.1
	}
	in.InitialActive = make([]float64, nm)
	for m := range in.InitialActive {
		in.InitialActive[m] = float64(r.Intn(in.Machines[m].Available))
	}
	return in
}

// BenchmarkSolveRelaxedCold is the per-period cost without basis reuse:
// every control period pays a full cold solve from the crash basis.
func BenchmarkSolveRelaxedCold(b *testing.B) {
	seq := benchSequence()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveRelaxed(seq[1+i%benchPeriods]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveRelaxedWarm solves the same periods, each seeded from
// the previous period's optimal basis, through one long-lived Controller
// — the steady-state MPC cost a tick pays: the controller keeps whatever
// it keeps between Steps (the CBS-RELAX program, since it is built once
// per catalog), and the rounding that follows the solve is a percent of
// it (BenchmarkRoundCBSDelta).
func BenchmarkSolveRelaxedWarm(b *testing.B) {
	seq := benchSequence()
	bases := make([]*lp.Basis, benchPeriods)
	pivots := 0
	for k := range bases {
		_, bs, err := SolveRelaxedWarm(seq[k], nil)
		if err != nil {
			b.Fatal(err)
		}
		bases[k] = bs
		plan, _, err := SolveRelaxedWarm(seq[k+1], bs)
		if err != nil {
			b.Fatal(err)
		}
		pivots += plan.Iterations
	}
	ctrl := &Controller{
		Machines: seq[0].Machines, Containers: seq[0].Containers,
		PeriodSeconds: seq[0].PeriodSeconds, Horizon: seq[0].Horizon, Mode: CBS,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % benchPeriods
		in := seq[k+1]
		ctrl.basis = bases[k]
		if _, err := ctrl.Step(in.InitialActive, in.Demand, in.Price); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pivots)/benchPeriods, "pivots/op")
}

// BenchmarkRoundCBS measures the parallel per-type First-Fit placement
// pass against a fixed fractional plan (12 machine types).
func BenchmarkRoundCBS(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	in := randomSized(r, 12, 8, 2)
	plan, err := SolveRelaxed(in)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Realize(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundCBSFull is BenchmarkRoundCBS at the delta scenario's
// size (20 machine types), the full-repack cost the delta path saves.
func BenchmarkRoundCBSFull(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	in := randomSized(r, 20, 8, 2)
	plan, err := SolveRelaxed(in)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Realize(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundCBSDelta measures the steady-state low-churn delta
// placement: 20 machine types of which one (5%) changes per period, each
// realization diffed against the previous period's decision.
func BenchmarkRoundCBSDelta(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	in := randomSized(r, 20, 8, 2)
	planA, err := SolveRelaxed(in)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	planB := churnBusiestType(ctrl, planA)
	decA, err := ctrl.Realize(planA)
	if err != nil {
		b.Fatal(err)
	}
	decB, err := ctrl.Realize(planB)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = ctrl.RealizeDelta(decA, planB)
		} else {
			_, err = ctrl.RealizeDelta(decB, planA)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
