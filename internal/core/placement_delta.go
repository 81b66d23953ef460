package core

// Incremental delta placement across control periods. Consecutive MPC
// periods change only a few machine types' allocations, yet roundCBS
// repacks every container from scratch each tick. This file mirrors the
// lp.SolveWarm trick at the packing layer: diff the new fractional plan
// against the previous decision per machine type, keep the packings of
// types whose integerized period-0 projection (machine budget, container
// counts, quota caps) is unchanged, and run First-Fit only for the
// changed types — with a full-repack fallback on any anomaly, so a stale
// previous decision can never change the answer, only cost time.

// DeltaStats reports how the controller's delta placement path has
// resolved its work since construction: machine types whose packings were
// reused, types repacked because their plan projection changed, and whole
// realizations that fell back to a full repack (nil/mismatched previous
// decision or a budget anomaly).
type DeltaStats struct {
	ReusedTypes   int
	RepackedTypes int
	FullRepacks   int
}

// DeltaStats returns the cumulative delta-placement counters.
func (c *Controller) DeltaStats() DeltaStats { return c.deltaStats }

// RealizeDelta rounds period 0 of a fractional plan like Realize, but in
// CBS mode reuses the per-type packings of prev for machine types whose
// period-0 plan projection is unchanged. prev may be nil (or from a
// different catalog shape), in which case the realization is a full
// repack; the result is bit-identical to Realize either way. Step calls
// it with the controller's previous decision; it is exported so the
// delta pass can be exercised (and benchmarked) against fixed plans.
//
// The machine and container catalogs must be the ones prev was produced
// under: like the warm LP basis, the delta diff watches the plan (and the
// Available counts, through the budget), not machine capacities or
// container sizes — mutating those between ticks requires a fresh
// controller (or a nil prev) anyway.
func (c *Controller) RealizeDelta(prev *Decision, plan *Plan) (*Decision, error) {
	switch c.Mode {
	case CBP:
		return c.roundCBP(plan), nil
	case CBS:
		return c.roundCBSDelta(prev, plan)
	default:
		return nil, errUnknownMode(c.Mode)
	}
}

// roundCBSDelta realizes period 0 with per-type reuse against prev. Any
// anomaly — nil or non-CBS prev, catalog-shape change, packed bins
// exceeding the current budget — falls back to the full repack exactly
// like the warm LP path falls back to a cold solve.
func (c *Controller) roundCBSDelta(prev *Decision, plan *Plan) (*Decision, error) {
	if !c.deltaReusable(prev, plan) {
		c.deltaStats.FullRepacks++
		return c.roundCBS(plan)
	}
	nm := len(c.Machines)
	reuse := make([]bool, nm)
	var changed []int
	for m := 0; m < nm; m++ {
		if !c.typeProjectionEqual(prev.Plan, plan, m) {
			changed = append(changed, m)
			continue
		}
		if len(prev.Packings[m]) > c.packBudget(plan, m) {
			// Budget shrank below the bins already packed: the reused
			// packing would exceed what Lemma 1 allows this period. With
			// an equal projection this cannot happen, so treat it as a
			// stale prev and repack everything.
			c.deltaStats.FullRepacks++
			return c.roundCBS(plan)
		}
		reuse[m] = true
	}

	parts := make([]typePacking, nm)
	for _, m := range changed {
		parts[m] = c.packType(plan, m)
	}
	c.deltaStats.ReusedTypes += nm - len(changed)
	c.deltaStats.RepackedTypes += len(changed)

	d := &Decision{
		ActiveMachines: make([]int, nm),
		Quota:          make([][]int, nm),
		Packings:       make([][][]int, nm),
		Dropped:        make([]int, len(c.Containers)),
		Plan:           plan,
	}
	// Merge in type order, like mergeParts, so the reported error is
	// always the lowest-type failure, as in the full repack. Reused
	// types cannot fail: their projection packed successfully last time
	// and packType is deterministic in the projection.
	for m := 0; m < nm; m++ {
		if reuse[m] {
			mergeReusedType(d, prev, plan, m)
			continue
		}
		p := &parts[m]
		if p.err != nil {
			return nil, p.err
		}
		d.ActiveMachines[m] = p.active
		d.Quota[m] = p.quota
		d.Packings[m] = p.packings
		for n, cnt := range p.dropped {
			d.Dropped[n] += cnt
		}
	}
	return d, nil
}

// deltaReusable reports whether prev is a CBS decision whose shape matches
// the controller's current catalog, so its per-type packings are safe to
// diff against. Any mismatch — nil prev (first period), a CBP decision
// (no packings), or a machine/container-set change — rejects reuse.
func (c *Controller) deltaReusable(prev *Decision, plan *Plan) bool {
	if prev == nil || prev.Plan == nil || prev.Packings == nil || plan == nil {
		return false
	}
	nm, nn := len(c.Machines), len(c.Containers)
	if len(prev.ActiveMachines) != nm || len(prev.Quota) != nm ||
		len(prev.Packings) != nm || len(prev.Dropped) != nn {
		return false
	}
	pp := prev.Plan
	if len(pp.Active) != nm || len(pp.Alloc) != nm {
		return false
	}
	for m := 0; m < nm; m++ {
		if len(pp.Active[m]) == 0 || len(pp.Alloc[m]) != nn || len(prev.Quota[m]) != nn {
			return false
		}
		for n := 0; n < nn; n++ {
			if len(pp.Alloc[m][n]) == 0 {
				return false
			}
		}
	}
	return true
}

// typeProjectionEqual reports whether machine type m's integerized
// period-0 projection — the First-Fit machine budget, the per-container
// item counts, and the quota caps — is identical between two plans.
// packType's output is a deterministic function of exactly this
// projection (plus the fixed catalog), so an equal projection makes the
// previous packing bit-identical to what a fresh repack would produce.
// Comparing the integerized values rather than the raw fractions matters:
// two fractions within the packer's 1e-9 tolerance of each other can
// still floor or ceil to different integers at a boundary.
//
//harmony:hotpath
func (c *Controller) typeProjectionEqual(a, b *Plan, m int) bool {
	if c.packBudget(a, m) != c.packBudget(b, m) {
		return false
	}
	for n := range c.Containers {
		if itemCount(a, m, n) != itemCount(b, m, n) {
			return false
		}
		if quotaCap(a, m, n) != quotaCap(b, m, n) {
			return false
		}
	}
	return true
}

// mergeReusedType folds machine type m of the previous decision into d.
// ActiveMachines, Quota, and Packings carry over as-is; the per-type drop
// counts are not stored in a Decision (only the cross-type aggregate is),
// so they are recomputed as planned-minus-placed — the projection is
// unchanged, so the counts equal what a fresh repack would drop. The
// merge writes only into pre-sized storage.
//
//harmony:hotpath
func mergeReusedType(d *Decision, prev *Decision, plan *Plan, m int) {
	d.ActiveMachines[m] = prev.ActiveMachines[m]
	d.Quota[m] = prev.Quota[m]
	d.Packings[m] = prev.Packings[m]
	for n := range d.Dropped {
		placed := 0
		for _, pack := range prev.Packings[m] {
			placed += pack[n]
		}
		if dropped := itemCount(plan, m, n) - placed; dropped > 0 {
			d.Dropped[n] += dropped
		}
	}
}
