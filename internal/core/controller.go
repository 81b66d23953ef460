package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"harmony/internal/lp"
)

// Mode selects how the fractional plan is realized (Section VIII-B).
type Mode int

// Provisioning modes.
const (
	// CBS is container-based scheduling: the controller packs integer
	// containers onto machines with First-Fit (Algorithm 1, Lemma 1)
	// and hands the scheduler an explicit placement.
	CBS Mode = iota + 1
	// CBP is container-based provisioning: only machine counts and
	// per-type container quotas are produced, by rounding the
	// fractional solution; the existing scheduler keeps control.
	CBP
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case CBS:
		return "CBS"
	case CBP:
		return "CBP"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Controller is the heterogeneity-aware DCP controller (Algorithm 1): at
// each control period it solves CBS-RELAX over a prediction horizon and
// realizes the first period of the plan as an integer decision.
type Controller struct {
	Machines      []MachineSpec
	Containers    []ContainerSpec
	PeriodSeconds float64
	Horizon       int
	Mode          Mode

	// basis carries the optimal simplex basis from the previous Step, so
	// consecutive MPC solves warm-start instead of re-pivoting from the
	// cold crash basis. lp.SolveWarm factors its columns in the current
	// problem and falls back to a cold solve if the catalog or horizon
	// changed, so a stale basis can never change the answer.
	basis *lp.Basis
	// relax is the CBS-RELAX program the previous Step solved, kept so a
	// period refills its objective and right-hand side instead of
	// rebuilding the constraint matrix. Each Step compares it with the
	// exported catalog fields above (callers may edit them between Steps)
	// and rebuilds on any difference; nil, as in a Controller literal,
	// just means nothing is kept yet.
	relax *relaxation
	// lastCBS is the previous Step's CBS decision, the packing-layer
	// mirror of basis: RealizeDelta diffs the new plan against it and
	// repacks only the machine types whose projection changed, falling
	// back to a full repack on any anomaly, so a stale decision can
	// never change the answer either.
	lastCBS *Decision
	// deltaStats counts how the delta placement path resolved its work
	// (reused vs repacked types, full-repack fallbacks).
	deltaStats DeltaStats
}

// Decision is the integer realization of one control period.
type Decision struct {
	// ActiveMachines[m] is the number of type-m machines to have on.
	ActiveMachines []int
	// Quota[m][n] caps the number of type-n containers that may run on
	// type-m machines. For CBS it equals the packed counts; for CBP it
	// is the rounded fractional allocation.
	Quota [][]int
	// Packings[m] lists, for CBS, the per-machine container counts chosen
	// by First-Fit: one entry per machine to keep on, indexed by container
	// type. Nil for CBP.
	Packings [][][]int
	// Dropped[n] counts containers of type n the rounding could not
	// place within the machine budget (CBS only).
	Dropped []int
	// Plan is the underlying fractional CBS-RELAX solution.
	Plan *Plan
}

// TotalActive returns the total machines the decision keeps on.
func (d *Decision) TotalActive() int {
	total := 0
	for _, a := range d.ActiveMachines {
		total += a
	}
	return total
}

// Step runs one MPC iteration: solve CBS-RELAX for the given initial
// machine state, per-type demand over the horizon, and prices, then round
// period 0 of the plan to integers according to the controller's mode.
func (c *Controller) Step(initialActive []float64, demand [][]float64, price []float64) (*Decision, error) {
	in := &PlanInput{
		PeriodSeconds: c.PeriodSeconds,
		Horizon:       c.Horizon,
		Machines:      c.Machines,
		Containers:    c.Containers,
		Demand:        demand,
		Price:         price,
		InitialActive: initialActive,
	}
	plan, basis, relax, err := solveRelaxed(c.relax, in, c.basis)
	c.relax = relax
	if err != nil {
		return nil, err
	}
	c.basis = basis
	//harmony:allow detertaint debug-only dump hook; never influences the decision
	if path := os.Getenv("HARMONY_DUMP_PLAN"); path != "" {
		dumpPlanInput(in, path)
	}
	dec, err := c.RealizeDelta(c.lastCBS, plan)
	if err != nil {
		return nil, err
	}
	if c.Mode == CBS {
		c.lastCBS = dec
	}
	return dec, nil
}

// Realize rounds period 0 of a fractional plan to an integer decision
// according to the controller's mode, always repacking from scratch. It
// is exported so the full placement pass can be exercised (and
// benchmarked) against a fixed plan without re-running the LP; Step uses
// RealizeDelta, which reuses unchanged machine types' packings from the
// previous decision and is bit-identical to this full pass.
func (c *Controller) Realize(plan *Plan) (*Decision, error) {
	switch c.Mode {
	case CBP:
		return c.roundCBP(plan), nil
	case CBS:
		return c.roundCBS(plan)
	default:
		return nil, errUnknownMode(c.Mode)
	}
}

// errUnknownMode is the shared rejection for modes Realize/RealizeDelta
// do not know.
func errUnknownMode(m Mode) error {
	return fmt.Errorf("core: unknown mode %d", int(m))
}

// dumpPlanInput writes the LP input as JSON for offline debugging; it is
// triggered by the HARMONY_DUMP_PLAN environment variable and best-effort.
func dumpPlanInput(in *PlanInput, path string) {
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	//harmony:allow errflow best-effort debug dump; a partial file is acceptable
	_ = enc.Encode(in)
}

// roundCBP rounds δ and σ to the nearest integers (Section VIII-B): the
// machine count and per-type quotas are handed to an unmodified scheduler.
func (c *Controller) roundCBP(plan *Plan) *Decision {
	d := &Decision{
		ActiveMachines: make([]int, len(c.Machines)),
		Quota:          make([][]int, len(c.Machines)),
		Dropped:        make([]int, len(c.Containers)),
		Plan:           plan,
	}
	for m := range c.Machines {
		a := int(math.Round(plan.Active[m][0]))
		if a < 0 {
			a = 0
		}
		if a > c.Machines[m].Available {
			a = c.Machines[m].Available
		}
		d.ActiveMachines[m] = a
		d.Quota[m] = make([]int, len(c.Containers))
		for n := range c.Containers {
			// The x^{mn} values are caps on concurrent containers, so
			// round up: shaving a fractional allocation to zero would
			// forbid a type from a machine class the plan meant to use.
			d.Quota[m][n] = int(math.Ceil(plan.Alloc[m][n][0] - 1e-9))
		}
	}
	return d
}
