// Package core implements the paper's primary contribution: the CBS-RELAX
// optimization (Eqs. 12-17), the Model Predictive Control loop of
// Algorithm 1 that turns fractional plans into integer machine and
// container decisions via First-Fit rounding (Lemma 1), and the CBP
// variant (Section VIII-B) that drives an unmodified scheduler.
package core

import (
	"errors"
	"fmt"
	"math"

	"harmony/internal/lp"
)

// MachineSpec describes one machine type available to the provisioner.
type MachineSpec struct {
	Type      int     // machine type identifier (matches trace/energy IDs)
	CPU, Mem  float64 // per-machine normalized capacity
	Available int     // N^m_t: machines of this type that exist

	IdleWatts float64 // E_idle,m (watts when on but idle)
	AlphaCPU  float64 // α_m,cpu (watts at full CPU)
	AlphaMem  float64 // α_m,mem (watts at full memory)
	// SwitchCost q_m is the dollar cost of turning one machine of this
	// type on or off (container reassignment cost folded in, §VII-C).
	SwitchCost float64
}

// ContainerSpec describes one container (task) type to be provisioned.
type ContainerSpec struct {
	Type     int     // dense container-type index
	CPU, Mem float64 // container reservation (from container.ForClass)
	// Value is the monetary gain per scheduled container per control
	// period — the slope of the concave utility f_n.
	Value float64
	// Omega is the over-provisioning factor ω_n >= 1 that compensates
	// bin-packing inefficiency (Eq. 17). 0 is treated as 1.
	Omega float64
}

// PlanInput is one CBS-RELAX instance over a prediction horizon.
type PlanInput struct {
	PeriodSeconds float64 // control-interval length
	Horizon       int     // W: number of look-ahead periods

	Machines   []MachineSpec
	Containers []ContainerSpec

	// Demand[n][t] is the predicted number of type-n containers needed
	// in period t (from the queueing module on forecast arrival rates).
	Demand [][]float64
	// Price[t] is the electricity price in $/kWh for period t.
	Price []float64
	// InitialActive[m] is z^m_{t-1}, the machines of type m currently on.
	InitialActive []float64
}

// Plan is the fractional CBS-RELAX solution.
type Plan struct {
	// Active[m][t] is z^m_t.
	Active [][]float64
	// Alloc[m][n][t] is x^{mn}_t (0 for incompatible pairs).
	Alloc [][][]float64
	// Scheduled[n][t] is the utility-earning scheduled container count
	// min(Σ_m x^{mn}_t, demand).
	Scheduled [][]float64
	Objective float64
	// Iterations is the simplex pivot count the solve spent — near zero
	// when a warm-started basis was already optimal.
	Iterations int
}

// ErrBadInput is returned for malformed plan inputs.
var ErrBadInput = errors.New("core: bad plan input")

func (in *PlanInput) validate() error {
	if in.PeriodSeconds <= 0 {
		return fmt.Errorf("%w: period %v", ErrBadInput, in.PeriodSeconds)
	}
	if in.Horizon <= 0 {
		return fmt.Errorf("%w: horizon %d", ErrBadInput, in.Horizon)
	}
	if len(in.Machines) == 0 || len(in.Containers) == 0 {
		return fmt.Errorf("%w: need machines and containers", ErrBadInput)
	}
	if len(in.Demand) != len(in.Containers) {
		return fmt.Errorf("%w: demand rows %d != containers %d", ErrBadInput, len(in.Demand), len(in.Containers))
	}
	for n, row := range in.Demand {
		if len(row) != in.Horizon {
			return fmt.Errorf("%w: demand[%d] has %d periods, want %d", ErrBadInput, n, len(row), in.Horizon)
		}
		for _, d := range row {
			if d < 0 || math.IsNaN(d) {
				return fmt.Errorf("%w: negative demand", ErrBadInput)
			}
		}
	}
	if len(in.Price) != in.Horizon {
		return fmt.Errorf("%w: price has %d periods, want %d", ErrBadInput, len(in.Price), in.Horizon)
	}
	if len(in.InitialActive) != len(in.Machines) {
		return fmt.Errorf("%w: initial active %d != machines %d", ErrBadInput, len(in.InitialActive), len(in.Machines))
	}
	for _, m := range in.Machines {
		if m.CPU <= 0 || m.Mem <= 0 || m.Available < 0 {
			return fmt.Errorf("%w: machine type %d", ErrBadInput, m.Type)
		}
	}
	for _, c := range in.Containers {
		if c.CPU <= 0 || c.Mem <= 0 {
			return fmt.Errorf("%w: container type %d", ErrBadInput, c.Type)
		}
	}
	return nil
}

// Compatible reports whether a container of spec c fits on an empty
// machine of spec m (after over-provisioning inflation).
func Compatible(m MachineSpec, c ContainerSpec) bool {
	om := c.Omega
	if om < 1 {
		om = 1
	}
	return om*c.CPU <= m.CPU && om*c.Mem <= m.Mem
}

// EffectiveSize returns the per-container capacity consumption of a type-c
// container on a type-m machine, adjusted for packing integrality: if at
// most k containers of this type fit one machine (k limited by the tighter
// resource), each one effectively consumes C/k of the machine in every
// dimension it is the k-limiter for. Aggregate LP capacity would otherwise
// believe that a container using 96% of a machine's memory leaves usable
// memory behind. Returns ok=false for incompatible pairs.
func EffectiveSize(m MachineSpec, c ContainerSpec) (cpu, mem float64, ok bool) {
	if !Compatible(m, c) {
		return 0, 0, false
	}
	om := c.Omega
	if om < 1 {
		om = 1
	}
	cpu = om * c.CPU
	mem = om * c.Mem
	k := math.Floor(m.CPU / cpu)
	if km := math.Floor(m.Mem / mem); km < k {
		k = km
	}
	if k < 1 {
		k = 1
	}
	// A machine hosting its k-th container of this type is effectively
	// full in the limiting dimension; spread that cost over the k slots.
	if perSlot := m.CPU / k; perSlot > cpu {
		// Only charge the rounding loss in the dimension that limits k;
		// the other dimension keeps its true size so mixed packing with
		// small containers stays possible in the model.
		//harmony:allow floateq exact by construction: k is one of these two Floor values
		if k == math.Floor(m.CPU/(om*c.CPU)) {
			cpu = perSlot
		}
	}
	if perSlot := m.Mem / k; perSlot > mem {
		//harmony:allow floateq exact by construction: k is one of these two Floor values
		if k == math.Floor(m.Mem/(om*c.Mem)) {
			mem = perSlot
		}
	}
	return cpu, mem, true
}

// varIndex lays out LP columns for the CBS-RELAX program.
type varIndex struct {
	nm, nn, w int
	// zBase[m][t], dPlusBase, dMinusBase, sBase[n][t]
	zBase, dPlusBase, dMinusBase, sBase int
	// xCol[(m*nn+n)*w+t] = column or -1 if incompatible
	xCol   []int
	numCol int
}

func newVarIndex(in *PlanInput) *varIndex {
	v := &varIndex{nm: len(in.Machines), nn: len(in.Containers), w: in.Horizon}
	v.xCol = make([]int, v.nm*v.nn*v.w)
	col := 0
	for m := 0; m < v.nm; m++ {
		for n := 0; n < v.nn; n++ {
			comp := Compatible(in.Machines[m], in.Containers[n])
			for t := 0; t < v.w; t++ {
				idx := (m*v.nn+n)*v.w + t
				if comp {
					v.xCol[idx] = col
					col++
				} else {
					v.xCol[idx] = -1
				}
			}
		}
	}
	v.zBase = col
	col += v.nm * v.w
	v.dPlusBase = col
	col += v.nm * v.w
	v.dMinusBase = col
	col += v.nm * v.w
	v.sBase = col
	col += v.nn * v.w
	v.numCol = col
	return v
}

func (v *varIndex) x(m, n, t int) int { return v.xCol[(m*v.nn+n)*v.w+t] }
func (v *varIndex) z(m, t int) int    { return v.zBase + m*v.w + t }
func (v *varIndex) dp(m, t int) int   { return v.dPlusBase + m*v.w + t }
func (v *varIndex) dm(m, t int) int   { return v.dMinusBase + m*v.w + t }
func (v *varIndex) s(n, t int) int    { return v.sBase + n*v.w + t }

// SolveRelaxed builds and solves the CBS-RELAX linear program (Eq. 14
// objective, Eq. 15 availability, Eq. 16/17 capacity with ω, plus the
// switching-cost linearization |δ| = δ⁺ + δ⁻) from a cold start.
func SolveRelaxed(in *PlanInput) (*Plan, error) {
	plan, _, err := SolveRelaxedWarm(in, nil)
	return plan, err
}

// SolveRelaxedWarm solves CBS-RELAX seeded from the optimal basis of a
// previous period's solve and returns the basis for the next period.
// Across MPC periods only the forecast demand, prices, and initial
// machine state change — the constraint matrix is identical as long as
// the machine/container catalog is — so the previous basis is usually
// optimal or a handful of pivots away. A stale or mismatched basis
// (catalog change, horizon change) is detected inside lp.SolveWarm and
// falls back to a cold solve; the answer is identical either way.
func SolveRelaxedWarm(in *PlanInput, basis *lp.Basis) (*Plan, *lp.Basis, error) {
	plan, next, _, err := solveRelaxed(nil, in, basis)
	return plan, next, err
}

// solveRelaxed is the one CBS-RELAX solve. r is the program a previous
// call built: it is refilled when it still describes in, replaced when
// it does not (or is nil), and returned for the next call either way, so
// a caller that keeps it pays for the constraint matrix once per catalog
// and a caller that does not gets the same answer from a fresh build.
func solveRelaxed(r *relaxation, in *PlanInput, basis *lp.Basis) (*Plan, *lp.Basis, *relaxation, error) {
	if err := in.validate(); err != nil {
		return nil, nil, r, err
	}
	if r == nil || !r.refill(in) {
		var err error
		if r, err = newRelaxation(in); err != nil {
			return nil, nil, nil, err
		}
	}
	sol, next, err := r.std.SolveWarm(basis)
	if err != nil {
		return nil, nil, r, fmt.Errorf("core: CBS-RELAX: %w", err)
	}
	return extractPlan(sol, r.v), next, r, nil
}

// relaxation is the CBS-RELAX program of one catalog: the column layout
// and the constraint matrix in the solver's standard form, both fixed by
// the catalog alone, plus the two vectors a control period does change.
type relaxation struct {
	// The catalog the matrix was built from: horizon (v.w), machine
	// CPU/Mem and container CPU/Mem/Omega decide compatibility and the
	// effective sizes; nothing else reaches a coefficient.
	machines   []MachineSpec
	containers []ContainerSpec
	v          *varIndex
	std        *lp.Standard
	obj, rhs   []float64 // per-period scratch, in column and row order
}

// newRelaxation builds the program for in, objective and RHS included.
func newRelaxation(in *PlanInput) (*relaxation, error) {
	v := newVarIndex(in)
	r := &relaxation{
		machines:   append([]MachineSpec(nil), in.Machines...),
		containers: append([]ContainerSpec(nil), in.Containers...),
		v:          v,
		obj:        make([]float64, v.numCol),
		rhs:        make([]float64, v.w*(4*v.nm+2*v.nn)),
	}
	r.fill(in)
	std, err := lp.NewStandard(buildProblem(in, v, r.obj, r.rhs))
	if err != nil {
		return nil, fmt.Errorf("core: CBS-RELAX: %w", err)
	}
	r.std = std
	return r, nil
}

// sameBits is float equality for the catalog comparison: the matrix is a
// function of the exact values, so "equal" means the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// refill restates the kept program for in's objective and right-hand
// side. It reports false, and the program must be rebuilt, when in's
// catalog differs from the one the matrix was built from or an RHS sign
// change would standardize a row differently.
func (r *relaxation) refill(in *PlanInput) bool {
	if in.Horizon != r.v.w || len(in.Machines) != len(r.machines) || len(in.Containers) != len(r.containers) {
		return false
	}
	for i, m := range in.Machines {
		if k := r.machines[i]; !sameBits(m.CPU, k.CPU) || !sameBits(m.Mem, k.Mem) {
			return false
		}
	}
	for i, c := range in.Containers {
		if k := r.containers[i]; !sameBits(c.CPU, k.CPU) || !sameBits(c.Mem, k.Mem) || !sameBits(c.Omega, k.Omega) {
			return false
		}
	}
	r.fill(in)
	return r.std.Refill(r.obj, r.rhs)
}

// fill computes the objective (Eq. 14) and the right-hand sides for in,
// in the column order of r.v and the row order of buildProblem.
func (r *relaxation) fill(in *PlanInput) {
	v, obj, rhs := r.v, r.obj, r.rhs
	for i := range obj {
		obj[i] = 0
	}
	kwhPerWattPeriod := in.PeriodSeconds / 3.6e6
	i := 0
	for t := 0; t < v.w; t++ {
		price := in.Price[t]
		for m, ms := range in.Machines {
			obj[v.z(m, t)] -= price * ms.IdleWatts * kwhPerWattPeriod
			obj[v.dp(m, t)] -= ms.SwitchCost
			obj[v.dm(m, t)] -= ms.SwitchCost
			for n, cs := range in.Containers {
				col := v.x(m, n, t)
				if col < 0 {
					continue
				}
				dynWatts := ms.AlphaCPU*cs.CPU/ms.CPU + ms.AlphaMem*cs.Mem/ms.Mem
				obj[col] -= price * dynWatts * kwhPerWattPeriod
			}
			// Availability, capacity per resource, switching linkage.
			rhs[i], rhs[i+1], rhs[i+2], rhs[i+3] = float64(ms.Available), 0, 0, 0
			if t == 0 {
				rhs[i+3] = in.InitialActive[m]
			}
			i += 4
		}
		for n, cs := range in.Containers {
			obj[v.s(n, t)] += cs.Value
			// Scheduled <= allocated, scheduled <= demand.
			rhs[i], rhs[i+1] = 0, in.Demand[n][t]
			i += 2
		}
	}
}

// buildProblem assembles the CBS-RELAX LP over the column layout v, with
// the objective and the right-hand sides (one per row, in the order the
// rows are added below) as fill computed them.
func buildProblem(in *PlanInput, v *varIndex, obj, rhs []float64) *lp.Problem {
	prob := &lp.Problem{NumVars: v.numCol, Objective: obj}
	row := make([]float64, v.numCol)
	reset := func() {
		for i := range row {
			row[i] = 0
		}
	}
	add := func(sense lp.Sense) {
		prob.AddConstraint(row, sense, rhs[len(prob.Constraints)])
	}
	for t := 0; t < v.w; t++ {
		for m, ms := range in.Machines {
			// Availability (Eq. 15): z <= N_m.
			reset()
			row[v.z(m, t)] = 1
			add(lp.LE)

			// Capacity per resource (Eq. 16/17), with per-pair
			// integrality-aware effective sizes:
			// Σ_n cEff_mnr x - C_mr z <= 0.
			for _, res := range []int{0, 1} {
				reset()
				for n, cs := range in.Containers {
					col := v.x(m, n, t)
					if col < 0 {
						continue
					}
					effCPU, effMem, ok := EffectiveSize(ms, cs)
					if !ok {
						continue
					}
					if res == 0 {
						row[col] = effCPU
					} else {
						row[col] = effMem
					}
				}
				if res == 0 {
					row[v.z(m, t)] = -ms.CPU
				} else {
					row[v.z(m, t)] = -ms.Mem
				}
				add(lp.LE)
			}

			// Switching linkage (Eq. 12): z_t - z_{t-1} = δ⁺ - δ⁻, with
			// z_{-1} the initial state on the right-hand side.
			reset()
			row[v.z(m, t)] = 1
			row[v.dp(m, t)] = -1
			row[v.dm(m, t)] = 1
			if t > 0 {
				row[v.z(m, t-1)] = -1
			}
			add(lp.EQ)
		}
		for n := range in.Containers {
			// Scheduled containers earn utility up to demand:
			// s <= Σ_m x, s <= D.
			reset()
			row[v.s(n, t)] = 1
			for m := range in.Machines {
				if col := v.x(m, n, t); col >= 0 {
					row[col] = -1
				}
			}
			add(lp.LE)

			reset()
			row[v.s(n, t)] = 1
			add(lp.LE)
		}
	}
	return prob
}

// extractPlan maps the LP solution vector back onto the plan tensors.
func extractPlan(sol *lp.Solution, v *varIndex) *Plan {
	plan := &Plan{
		Active:     make([][]float64, v.nm),
		Alloc:      make([][][]float64, v.nm),
		Scheduled:  make([][]float64, v.nn),
		Objective:  sol.Objective,
		Iterations: sol.Iterations,
	}
	for m := 0; m < v.nm; m++ {
		plan.Active[m] = make([]float64, v.w)
		plan.Alloc[m] = make([][]float64, v.nn)
		for t := 0; t < v.w; t++ {
			plan.Active[m][t] = sol.X[v.z(m, t)]
		}
		for n := 0; n < v.nn; n++ {
			plan.Alloc[m][n] = make([]float64, v.w)
			for t := 0; t < v.w; t++ {
				if col := v.x(m, n, t); col >= 0 {
					plan.Alloc[m][n][t] = sol.X[col]
				}
			}
		}
	}
	for n := 0; n < v.nn; n++ {
		plan.Scheduled[n] = make([]float64, v.w)
		for t := 0; t < v.w; t++ {
			plan.Scheduled[n][t] = sol.X[v.s(n, t)]
		}
	}
	return plan
}
