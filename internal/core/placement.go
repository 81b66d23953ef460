package core

import (
	"fmt"
	"math"

	"harmony/internal/binpack"
)

// typePacking is the CBS rounding result for one machine type. Machine
// types partition the placement problem: type m's packing reads only
// plan.Active[m]/plan.Alloc[m] and writes only the type-m decision slots,
// which is what lets the delta path repack some types and reuse others.
type typePacking struct {
	active   int
	packings [][]int // per machine, indexed by container type
	quota    []int
	dropped  []int // indexed by container type
	err      error
}

// packBudget is the integer machine budget First-Fit may use for machine
// type m in period 0: ⌈z*⌉ plus Lemma 1's one-machine allowance, capped
// at the machines that exist. The delta path diffs consecutive plans on
// this same integerized value, so budget drift is always detected.
//
//harmony:hotpath
func (c *Controller) packBudget(plan *Plan, m int) int {
	zStar := plan.Active[m][0]
	budget := int(math.Ceil(zStar - 1e-9))
	if zStar > 1e-9 {
		budget++ // Lemma 1's z*+1 allowance
	}
	if budget > c.Machines[m].Available {
		budget = c.Machines[m].Available
	}
	return budget
}

// itemCount is the integer number of type-n containers the plan allocates
// to machine type m in period 0: floor of the fractional allocation (the
// plan already respects capacity).
//
//harmony:hotpath
func itemCount(plan *Plan, m, n int) int {
	return int(math.Floor(plan.Alloc[m][n][0] + 1e-9))
}

// quotaCap is the per-type container cap the decision reports for machine
// type m: the plan's ceiling (Algorithm 1 lets the scheduler keep placing
// as long as the total stays within x^{mn}), not the packed counts, which
// floor-rounding would understate.
//
//harmony:hotpath
func quotaCap(plan *Plan, m, n int) int {
	return int(math.Ceil(plan.Alloc[m][n][0] - 1e-9))
}

// packType rounds period 0 of the plan for machine type m with First-Fit
// (Algorithm 1): at most ⌈z*⌉+1 machines are used, and by Lemma 1 at
// least x*/(2|R|) containers of each type fit.
func (c *Controller) packType(plan *Plan, m int) typePacking {
	ms := c.Machines[m]
	p := typePacking{quota: make([]int, len(c.Containers))}
	budget := c.packBudget(plan, m)
	if budget == 0 {
		// No machines to pack onto, but the plan may still have allocated
		// containers here (e.g. a type whose Available hit zero): those
		// containers vanish, so count every one of them as dropped, and
		// report the plan's caps as quotas like the packed path does.
		for n := range c.Containers {
			if count := itemCount(plan, m, n); count > 0 {
				if p.dropped == nil {
					p.dropped = make([]int, len(c.Containers))
				}
				p.dropped[n] = count
			}
			p.quota[n] = quotaCap(plan, m, n)
		}
		return p
	}

	// Integer container counts and reserved sizes for this machine type.
	demands := make([][]float64, len(c.Containers))
	counts := make([]int, len(c.Containers))
	for n, cs := range c.Containers {
		om := cs.Omega
		if om < 1 {
			om = 1
		}
		demands[n] = []float64{om * cs.CPU, om * cs.Mem}
		counts[n] = itemCount(plan, m, n)
	}
	bins, unplaced, err := binpack.FirstFitBounded(demands, counts, []float64{ms.CPU, ms.Mem}, budget)
	if err != nil {
		p.err = fmt.Errorf("core: CBS rounding type %d: %w", ms.Type, err)
		return p
	}
	p.active = len(bins)
	p.packings = make([][]int, len(bins))
	for bi := range bins {
		p.packings[bi] = bins[bi].Counts
	}
	p.dropped = unplaced
	for n := range c.Containers {
		p.quota[n] = quotaCap(plan, m, n)
	}
	return p
}

// roundCBS realizes period 0 with First-Fit packing per machine type,
// repacking every type from scratch. The delta path (roundCBSDelta)
// shortcuts this for types whose plan projection is unchanged; roundCBS
// stays the reference (and the fallback) the delta must be bit-identical
// to.
func (c *Controller) roundCBS(plan *Plan) (*Decision, error) {
	nm := len(c.Machines)
	parts := make([]typePacking, nm)
	for m := range parts {
		parts[m] = c.packType(plan, m)
	}

	d := &Decision{
		ActiveMachines: make([]int, nm),
		Quota:          make([][]int, nm),
		Packings:       make([][][]int, nm),
		Dropped:        make([]int, len(c.Containers)),
		Plan:           plan,
	}
	if err := mergeParts(d, parts); err != nil {
		return nil, err
	}
	return d, nil
}

// mergeParts folds the per-type packings into the decision in type
// order, so the reported error is always the lowest-type failure. The
// merge writes only into pre-sized storage.
//
//harmony:hotpath
func mergeParts(d *Decision, parts []typePacking) error {
	for m := range parts {
		p := &parts[m]
		if p.err != nil {
			return p.err
		}
		d.ActiveMachines[m] = p.active
		d.Quota[m] = p.quota
		d.Packings[m] = p.packings
		for n, cnt := range p.dropped {
			d.Dropped[n] += cnt
		}
	}
	return nil
}
