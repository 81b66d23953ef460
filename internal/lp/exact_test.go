package lp

import "math/big"

// solveExact is a two-phase tableau simplex in math/big.Rat arithmetic
// with Bland's rule throughout: it cannot cycle and has no tolerance, so
// on the fuzz target's dyadic programs its verdict and objective are
// exact. FuzzSolveMatchesDense consults it only where the float dense
// tableau and the sparse engine disagree, to tell which of them is wrong.
func solveExact(p *Problem) (*big.Rat, error) {
	m := len(p.Constraints)
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	// Columns: structural, then one slack or surplus per inequality, then
	// one artificial per GE or EQ row (after sign normalization).
	type row struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	rows := make([]row, m)
	slacks, arts := 0, 0
	for i, c := range p.Constraints {
		r := row{append([]float64(nil), c.Coeffs...), c.Sense, c.RHS}
		if r.rhs < 0 {
			for j := range r.coeffs {
				r.coeffs[j] = -r.coeffs[j]
			}
			r.rhs = -r.rhs
			if r.sense != EQ {
				r.sense = LE + GE - r.sense
			}
		}
		if r.sense != EQ {
			slacks++
		}
		if r.sense != LE {
			arts++
		}
		rows[i] = r
	}
	n := p.NumVars + slacks + arts
	firstArt := p.NumVars + slacks
	t := make([][]*big.Rat, m) // t[i][n] is the right-hand side
	basis := make([]int, m)
	slack, art := p.NumVars, firstArt
	for i, r := range rows {
		t[i] = make([]*big.Rat, n+1)
		for j := range t[i] {
			t[i][j] = new(big.Rat)
		}
		for j, v := range r.coeffs {
			t[i][j] = rat(v)
		}
		t[i][n] = rat(r.rhs)
		switch r.sense {
		case LE:
			t[i][slack].SetInt64(1)
			basis[i] = slack
			slack++
		case GE:
			t[i][slack].SetInt64(-1)
			slack++
			fallthrough
		case EQ:
			t[i][art].SetInt64(1)
			basis[i] = art
			art++
		}
	}
	pivot := func(r, c int) {
		inv := new(big.Rat).Inv(t[r][c])
		for j := range t[r] {
			t[r][j].Mul(t[r][j], inv)
		}
		tmp := new(big.Rat)
		for i := range t {
			if i == r || t[i][c].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(t[i][c])
			for j := range t[i] {
				t[i][j].Sub(t[i][j], tmp.Mul(f, t[r][j]))
			}
		}
		basis[r] = c
	}
	// run maximizes cost·x over the non-artificial columns (all columns
	// in phase one): Bland's lowest-index entering column, the lowest
	// basic index among tied ratios. It reports false on an unbounded ray.
	run := func(cost []*big.Rat, enterable int) bool {
		rc, tmp := new(big.Rat), new(big.Rat)
		for {
			enter := -1
			for j := 0; j < enterable && enter < 0; j++ {
				rc.Set(cost[j])
				for i, bj := range basis {
					rc.Sub(rc, tmp.Mul(cost[bj], t[i][j]))
				}
				if rc.Sign() > 0 {
					enter = j
				}
			}
			if enter < 0 {
				return true
			}
			leave := -1
			var best *big.Rat
			for i := range t {
				if t[i][enter].Sign() <= 0 {
					continue
				}
				ratio := new(big.Rat).Quo(t[i][n], t[i][enter])
				if leave >= 0 {
					c := ratio.Cmp(best)
					if c > 0 || (c == 0 && basis[i] > basis[leave]) {
						continue
					}
				}
				leave, best = i, ratio
			}
			if leave < 0 {
				return false
			}
			pivot(leave, enter)
		}
	}
	cost := make([]*big.Rat, n)
	for j := range cost {
		cost[j] = new(big.Rat)
		if j >= firstArt {
			cost[j].SetInt64(-1)
		}
	}
	run(cost, n)
	for i, bj := range basis {
		if bj >= firstArt && t[i][n].Sign() > 0 {
			return nil, ErrInfeasible
		}
	}
	// Drive zero-level artificials out where a real column can replace
	// them; one that cannot sits on a redundant row and stays at zero.
	for i, bj := range basis {
		if bj < firstArt {
			continue
		}
		for j := 0; j < firstArt; j++ {
			if t[i][j].Sign() != 0 {
				pivot(i, j)
				break
			}
		}
	}
	for j := range cost {
		cost[j] = new(big.Rat)
		if j < p.NumVars {
			cost[j] = rat(p.Objective[j])
		}
	}
	if !run(cost, firstArt) {
		return nil, ErrUnbounded
	}
	obj, tmp := new(big.Rat), new(big.Rat)
	for i, bj := range basis {
		obj.Add(obj, tmp.Mul(cost[bj], t[i][n]))
	}
	return obj, nil
}
