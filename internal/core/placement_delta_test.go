package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDeltaPlacementIdentity drives randomized multi-period MPC
// sequences and pins the delta contract: on every tick, realizing the
// plan against the previous period's decision is bit-identical to the
// full repack (the same equivalence recipe as the warm-LP property
// tests).
func TestDeltaPlacementIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 6; trial++ {
		in := wideInput(r, 6+r.Intn(6))
		ctrl := &Controller{
			Machines: in.Machines, Containers: in.Containers,
			PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
		}
		var prev *Decision
		for period := 0; period < 5; period++ {
			if period > 0 {
				in = perturb(r, in)
			}
			plan, err := SolveRelaxed(in)
			if err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
			cold, err := ctrl.Realize(plan)
			if err != nil {
				t.Fatalf("trial %d period %d cold: %v", trial, period, err)
			}
			delta, err := ctrl.RealizeDelta(prev, plan)
			if err != nil {
				t.Fatalf("trial %d period %d delta: %v", trial, period, err)
			}
			if !reflect.DeepEqual(cold, delta) {
				t.Fatalf("trial %d period %d: delta decision differs from full repack", trial, period)
			}
			prev = delta
		}
	}
}

// TestDeltaPlacementReuse pins that the delta path actually reuses:
// realizing an identical plan against its own decision repacks nothing,
// and perturbing a single machine type's allocation repacks exactly that
// type.
func TestDeltaPlacementReuse(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	in := wideInput(r, 10)
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	prev, err := ctrl.Realize(plan)
	if err != nil {
		t.Fatal(err)
	}
	nm := len(in.Machines)

	before := ctrl.DeltaStats()
	if _, err := ctrl.RealizeDelta(prev, plan); err != nil {
		t.Fatal(err)
	}
	after := ctrl.DeltaStats()
	if got := after.ReusedTypes - before.ReusedTypes; got != nm {
		t.Errorf("identical plan reused %d of %d types", got, nm)
	}
	if got := after.RepackedTypes - before.RepackedTypes; got != 0 {
		t.Errorf("identical plan repacked %d types", got)
	}

	// Shift one machine type's whole-container allocation so only its
	// projection changes.
	churned := churnBusiestType(ctrl, plan)
	before = after
	d, err := ctrl.RealizeDelta(prev, churned)
	if err != nil {
		t.Fatal(err)
	}
	after = ctrl.DeltaStats()
	if got := after.RepackedTypes - before.RepackedTypes; got != 1 {
		t.Errorf("single-type churn repacked %d types, want 1", got)
	}
	if got := after.ReusedTypes - before.ReusedTypes; got != nm-1 {
		t.Errorf("single-type churn reused %d types, want %d", got, nm-1)
	}
	cold, err := ctrl.Realize(churned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, d) {
		t.Error("churned delta decision differs from full repack")
	}
}

// churnBusiestType returns a copy of plan with the busiest machine
// type's period-0 allocation halved — the shape of a low-churn MPC drift
// where one type's demand moved and every other type's projection is
// unchanged. Only the churned rows are copied; the rest of the plan is
// shared, as placement only reads it.
func churnBusiestType(c *Controller, plan *Plan) *Plan {
	busiest, most := 0, -1
	for m := range c.Machines {
		total := 0
		for n := range c.Containers {
			total += itemCount(plan, m, n)
		}
		if total > most {
			busiest, most = m, total
		}
	}
	out := &Plan{
		Active:    plan.Active,
		Alloc:     append([][][]float64(nil), plan.Alloc...),
		Scheduled: plan.Scheduled,
		Objective: plan.Objective,
	}
	row := make([][]float64, len(plan.Alloc[busiest]))
	for n, col := range plan.Alloc[busiest] {
		nc := append([]float64(nil), col...)
		nc[0] *= 0.5
		row[n] = nc
	}
	out.Alloc[busiest] = row
	return out
}

// TestDeltaPlacementFallbacks pins the anomaly triggers: nil prev, CBP
// prev (no packings), and a container-set change must all fall back to a
// full repack — and still produce the full repack's exact decision.
func TestDeltaPlacementFallbacks(t *testing.T) {
	r := rand.New(rand.NewSource(7001))
	in := wideInput(r, 6)
	plan, err := SolveRelaxed(in)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	cold, err := ctrl.Realize(plan)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, prev *Decision) {
		t.Helper()
		before := ctrl.DeltaStats()
		d, err := ctrl.RealizeDelta(prev, plan)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := ctrl.DeltaStats()
		if after.FullRepacks-before.FullRepacks != 1 {
			t.Errorf("%s: did not fall back to a full repack", name)
		}
		if !reflect.DeepEqual(cold, d) {
			t.Errorf("%s: fallback decision differs from full repack", name)
		}
	}

	check("nil prev", nil)

	cbpCtrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBP,
	}
	cbpDec, err := cbpCtrl.Realize(plan)
	if err != nil {
		t.Fatal(err)
	}
	check("CBP prev (no packings)", cbpDec)

	// Container-set change: a decision shaped for a smaller catalog.
	shrunk := *cold
	shrunk.Dropped = cold.Dropped[:len(cold.Dropped)-1]
	check("container-set change", &shrunk)

	// Machine-set change.
	narrow := *cold
	narrow.Packings = cold.Packings[:len(cold.Packings)-1]
	check("machine-set change", &narrow)
}

// TestControllerStepDelta pins the Step threading: a controller's
// consecutive Steps chain decisions through the delta path (reusing at
// least one unchanged type in steady state) while staying bit-identical
// to a stateless full repack of each period's plan.
func TestControllerStepDelta(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := wideInput(r, 8)
	ctrl := &Controller{
		Machines: in.Machines, Containers: in.Containers,
		PeriodSeconds: in.PeriodSeconds, Horizon: in.Horizon, Mode: CBS,
	}
	for period := 0; period < 5; period++ {
		if period > 0 {
			in = perturb(r, in)
		}
		dec, err := ctrl.Step(in.InitialActive, in.Demand, in.Price)
		if err != nil {
			t.Fatalf("period %d: %v", period, err)
		}
		cold, err := ctrl.Realize(dec.Plan)
		if err != nil {
			t.Fatalf("period %d cold: %v", period, err)
		}
		if !reflect.DeepEqual(cold, dec) {
			t.Fatalf("period %d: Step decision differs from full repack of its plan", period)
		}
	}
	stats := ctrl.DeltaStats()
	if stats.FullRepacks != 1 {
		t.Errorf("full repacks = %d, want exactly the first period's", stats.FullRepacks)
	}
	if stats.ReusedTypes == 0 {
		t.Error("no machine type was ever reused across five steady-state periods")
	}
}
