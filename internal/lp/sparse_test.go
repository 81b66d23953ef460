package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomLP builds a random feasible-or-not LP with mixed senses. Small
// coefficients and RHS keep the instances numerically tame.
func randomLP(r *rand.Rand, nVars, nRows int) *Problem {
	p := &Problem{NumVars: nVars, Objective: make([]float64, nVars)}
	for j := range p.Objective {
		p.Objective[j] = math.Round((r.Float64()*4-1)*8) / 4
	}
	for i := 0; i < nRows; i++ {
		coeffs := make([]float64, nVars)
		for j := range coeffs {
			if r.Float64() < 0.6 {
				coeffs[j] = math.Round((r.Float64()*4-2)*8) / 4
			}
		}
		sense := LE
		switch r.Intn(6) {
		case 0:
			sense = GE
		case 1:
			sense = EQ
		}
		rhs := math.Round((r.Float64()*20 - 2) * 4 / 4)
		p.AddConstraint(coeffs, sense, rhs)
	}
	return p
}

// mustStandard is NewStandard for a problem known to be well formed.
func mustStandard(t testing.TB, p *Problem) *Standard {
	t.Helper()
	s, err := NewStandard(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertFeasible checks x against every row of p within tolerance.
func assertFeasible(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j, v := range x {
		if v < -tol {
			t.Fatalf("x[%d] = %g < 0", j, v)
		}
	}
	for i, c := range p.Constraints {
		lhs := 0.0
		for j, a := range c.Coeffs {
			lhs += a * x[j]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				t.Fatalf("row %d: %g > %g (LE)", i, lhs, c.RHS)
			}
		case GE:
			if lhs < c.RHS-tol {
				t.Fatalf("row %d: %g < %g (GE)", i, lhs, c.RHS)
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol {
				t.Fatalf("row %d: %g != %g (EQ)", i, lhs, c.RHS)
			}
		}
	}
}

// TestSparseMatchesDenseRandom differential-tests the sparse revised
// simplex against the dense tableau reference on random mixed-sense LPs:
// identical feasibility verdicts, matching objectives, feasible points,
// and every optimum certified.
func TestSparseMatchesDenseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		nVars := 1 + r.Intn(6)
		nRows := 1 + r.Intn(7)
		p := randomLP(r, nVars, nRows)
		ds, derr := SolveDense(p)
		ss, serr := solveCertified(t, p)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, derr, serr)
		}
		if derr != nil {
			if !errors.Is(serr, derr) {
				t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, derr, serr)
			}
			continue
		}
		feasible++
		// Optimal vertices may differ under degeneracy; objectives must not.
		tol := 1e-6 * (1 + math.Abs(ds.Objective))
		if math.Abs(ds.Objective-ss.Objective) > tol {
			t.Fatalf("trial %d: dense obj %g sparse obj %g", trial, ds.Objective, ss.Objective)
		}
		assertFeasible(t, p, ss.X)
	}
	if feasible < 50 {
		t.Fatalf("only %d feasible instances; generator too harsh", feasible)
	}
	t.Logf("%d feasible instances, each optimum certified", feasible)
}

// TestSparseMatchesDenseLarge pushes past refactorEvery pivots so the
// eta-fold/refactor path is exercised, not just the pure eta file.
func TestSparseMatchesDenseLarge(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 10; trial++ {
		p := randomLP(r, 25, 35)
		ds, derr := SolveDense(p)
		ss, _, serr := SolveWarm(p, nil)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("trial %d: dense err=%v sparse err=%v", trial, derr, serr)
		}
		if derr != nil {
			continue
		}
		tol := 1e-5 * (1 + math.Abs(ds.Objective))
		if math.Abs(ds.Objective-ss.Objective) > tol {
			t.Fatalf("trial %d: dense obj %g sparse obj %g", trial, ds.Objective, ss.Objective)
		}
		assertFeasible(t, p, ss.X)
	}
}

// TestSolveWarmMatchesCold re-solves perturbed copies of a base problem
// (objective and RHS drift, matrix fixed — the MPC shape) from the
// previous basis and requires the warm answer to match a cold solve
// while spending fewer total pivots.
func TestSolveWarmMatchesCold(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := randomLP(r, 8, 10)
	// Make the base comfortably feasible: LE rows with positive RHS.
	base.Constraints = nil
	for i := 0; i < 10; i++ {
		coeffs := make([]float64, base.NumVars)
		for j := range coeffs {
			if r.Float64() < 0.6 {
				coeffs[j] = r.Float64() * 2
			}
		}
		base.AddConstraint(coeffs, LE, 5+r.Float64()*10)
	}
	var basis *Basis
	coldIters, warmIters := 0, 0
	for period := 0; period < 20; period++ {
		p := &Problem{NumVars: base.NumVars, Objective: append([]float64(nil), base.Objective...)}
		for j := range p.Objective {
			p.Objective[j] += (r.Float64() - 0.5) * 0.2 * float64(period)
		}
		p.Constraints = make([]Constraint, len(base.Constraints))
		for i, c := range base.Constraints {
			p.Constraints[i] = Constraint{Coeffs: c.Coeffs, Sense: c.Sense,
				RHS: c.RHS + (r.Float64()-0.5)*0.5}
		}
		cold, _, err := SolveWarm(p, nil)
		if err != nil {
			t.Fatalf("period %d cold: %v", period, err)
		}
		warm, next, err := SolveWarm(p, basis)
		if err != nil {
			t.Fatalf("period %d warm: %v", period, err)
		}
		tol := 1e-6 * (1 + math.Abs(cold.Objective))
		if math.Abs(cold.Objective-warm.Objective) > tol {
			t.Fatalf("period %d: cold obj %g warm obj %g", period, cold.Objective, warm.Objective)
		}
		assertFeasible(t, p, warm.X)
		coldIters += cold.Iterations
		if period > 0 {
			warmIters += warm.Iterations
		}
		basis = next
	}
	if warmIters >= coldIters {
		t.Fatalf("warm starts saved nothing: warm %d pivots vs cold %d", warmIters, coldIters)
	}
	t.Logf("pivots: cold=%d warm=%d (periods 1..19)", coldIters, warmIters)
}

// TestSolveWarmBasisReusable verifies a Basis survives being used for
// several solves (SolveWarm must not mutate its argument).
func TestSolveWarmBasisReusable(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{3, 5}}
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	_, basis, err := SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, _, err := SolveWarm(p, basis)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		if math.Abs(s.Objective-36) > 1e-9 {
			t.Fatalf("reuse %d: objective %g, want 36", i, s.Objective)
		}
		if s.Iterations != 0 {
			t.Fatalf("reuse %d: %d pivots from an optimal basis, want 0", i, s.Iterations)
		}
	}
}

// TestSolveWarmMismatchFallsBack feeds bases that do not belong to the
// problem — from a structurally different one, with singular columns,
// with inconsistent basic values; the solver must detect each and still
// return the correct answer.
func TestSolveWarmMismatchFallsBack(t *testing.T) {
	small := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	small.AddConstraint([]float64{1, 1}, LE, 10)
	_, smallBasis, err := SolveWarm(small, nil)
	if err != nil {
		t.Fatal(err)
	}

	big := &Problem{NumVars: 2, Objective: []float64{3, 5}}
	big.AddConstraint([]float64{1, 0}, LE, 4)
	big.AddConstraint([]float64{0, 2}, LE, 12)
	big.AddConstraint([]float64{3, 2}, LE, 18)
	s, _, err := SolveWarm(big, smallBasis)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-36) > 1e-9 {
		t.Fatalf("objective %g, want 36", s.Objective)
	}

	// Same shape, different matrix: the basis is factored from this
	// problem's own columns, so the answer is this problem's.
	twisted := &Problem{NumVars: 2, Objective: []float64{3, 5}}
	twisted.AddConstraint([]float64{0, 1}, LE, 4)
	twisted.AddConstraint([]float64{2, 0}, LE, 12)
	twisted.AddConstraint([]float64{2, 3}, LE, 18)
	_, bigBasis, err := SolveWarm(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, err := SolveWarm(twisted, bigBasis)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveDense(twisted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts.Objective-ref.Objective) > 1e-9 {
		t.Fatalf("twisted: warm obj %g, dense obj %g", ts.Objective, ref.Objective)
	}

	// Bases that fit the shape but not the numbers — singular columns, a
	// capture-time right-hand side the basis is infeasible for, a NaN —
	// each get their named outcome and a cold solve's answer.
	build := func(rhs3 float64) *Problem {
		p := &Problem{NumVars: 3, Objective: []float64{3, 5, 1}}
		p.AddConstraint([]float64{1, 0, 1}, LE, 4)
		p.AddConstraint([]float64{0, 2, 0}, LE, 12)
		p.AddConstraint([]float64{3, 2, 3}, LE, rhs3)
		return p
	}
	_, good, err := SolveWarm(build(18), nil) // x = 2, y = 6: 36
	if err != nil {
		t.Fatal(err)
	}
	// Under rhs3 = 10 the optimal basis goes primal infeasible (x = −2/3),
	// so the repair runs from the basic values under the captured RHS.
	p := build(10)
	want, _, err := SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(f func(b *Basis)) *Basis {
		b := &Basis{m: good.m, n: good.n,
			cols: append([]int(nil), good.cols...),
			b:    append([]float64(nil), good.b...)}
		f(b)
		return b
	}
	for _, c := range []struct {
		name  string
		basis *Basis
		want  warmOutcome
	}{
		{"as captured", good, dualRepair},
		// Columns x and z are parallel in every row: B is singular.
		{"singular columns", tamper(func(b *Basis) { b.cols = []int{0, 2, 3} }), coldSingular},
		// A capture-time RHS under which the basis itself is infeasible:
		// nothing to repair from.
		{"capture-time RHS infeasible", tamper(func(b *Basis) { b.b[2] = 10 }), coldResidual},
		{"capture-time RHS NaN", tamper(func(b *Basis) { b.b[1] = math.NaN() }), coldResidual},
		{"short", tamper(func(b *Basis) { b.b = b.b[:2] }), coldMismatch},
	} {
		sol, _, outcome, err := mustStandard(t, p).solve(c.basis)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if outcome != c.want {
			t.Errorf("%s: outcome %v, want %v", c.name, outcome, c.want)
		}
		if math.Abs(sol.Objective-want.Objective) > 1e-9 {
			t.Errorf("%s: objective %v, cold %v", c.name, sol.Objective, want.Objective)
		}
	}
}

// TestSolveWarmInfeasibleRHS warm-starts into a RHS that makes the old
// basis primal-infeasible; the fallback cold solve must still detect
// overall infeasibility correctly.
func TestSolveWarmInfeasibleRHS(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, LE, 10)
	p.AddConstraint([]float64{1, 0}, GE, 2)
	_, basis, err := SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	bad.AddConstraint([]float64{1, 1}, LE, 10)
	bad.AddConstraint([]float64{1, 0}, GE, 50)
	if _, _, err := SolveWarm(bad, basis); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
}

// TestSparseDegenerateBland forces Bland's rule from the very first
// pivot on Beale's classic cycling example; the solver must terminate at
// the optimum instead of cycling.
func TestSparseDegenerateBland(t *testing.T) {
	p := &Problem{NumVars: 4, Objective: []float64{0.75, -150, 0.02, -6}}
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	sv := newSparseSolver(&mustStandard(t, p).std)
	sv.startCold()
	if err := sv.runBudget(10000, 0); err != nil {
		t.Fatalf("Bland-from-start failed: %v", err)
	}
	s := sv.solution()
	if math.Abs(s.Objective-0.05) > 1e-9 {
		t.Fatalf("objective %g, want 0.05", s.Objective)
	}
}

// TestSparseInfeasiblePhase1: contradictory rows leave an artificial
// basic at a positive level where phase 1 stops, which must be reported
// as ErrInfeasible (not as a bogus optimum).
func TestSparseInfeasiblePhase1(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{0}}
	p2.AddConstraint([]float64{1}, LE, 1)
	p2.AddConstraint([]float64{1}, GE, 3)
	if _, _, err := SolveWarm(p2, nil); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
}

// TestSparseZeroObjective: with an all-zero objective any feasible point
// is optimal; the solver must still drive artificials out and return a
// feasible x with objective exactly 0.
func TestSparseZeroObjective(t *testing.T) {
	p := &Problem{NumVars: 3, Objective: []float64{0, 0, 0}}
	p.AddConstraint([]float64{1, 1, 0}, EQ, 4)
	p.AddConstraint([]float64{0, 1, 1}, GE, 2)
	p.AddConstraint([]float64{1, 0, 1}, LE, 7)
	s, _, err := SolveWarm(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective != 0 {
		t.Fatalf("objective %g, want exactly 0", s.Objective)
	}
	assertFeasible(t, p, s.X)
}

// TestSparseUnbounded mirrors the dense unbounded test through the
// sparse path, then solves well-conditioned one-variable programs whose
// ray is long and whose gain along it is small: nothing cancels in that
// gain, so it is no roundoff, and the verdict must be the exact
// simplex's.
func TestSparseUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, -1}, GE, 1)
	if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("got %v, want ErrUnbounded", err)
	}
	for _, c := range []struct{ cost, coeff float64 }{
		{1e-6, -1e4}, // gain above the certificate's tolerance
		{5e-8, -100}, // gain under it
	} {
		p := &Problem{NumVars: 1, Objective: []float64{c.cost}}
		p.AddConstraint([]float64{c.coeff}, LE, 5)
		if _, err := solveExact(p); !errors.Is(err, ErrUnbounded) {
			t.Fatalf("max %g·x s.t. %g·x ≤ 5: exact simplex says %v", c.cost, c.coeff, err)
		}
		if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrUnbounded) {
			t.Errorf("max %g·x s.t. %g·x ≤ 5: got %v, want ErrUnbounded", c.cost, c.coeff, err)
		}
	}
}

// TestIllConditionedVerdicts: programs whose pivots compound two or
// three 1/1024 entries, on which a float simplex with an absolute eps
// goes wrong in a different way each — an infeasible point after a tied
// ratio's step, a pivot on roundoff beside entries of 1e3, a roundoff
// reduced cost reported as unboundedness — and two phase-1 programs
// whose only way to a feasible point is a pivot far below the ratio
// test's tolerance, on an entry that is all of a column's exact phase-1
// reduced cost: ruling that column out as roundoff reports one program
// infeasible that has an optimum of 100 and the other infeasible that is
// unbounded (artificialRow takes the pivot). On two more the
// cold run's first stop fails its certificate, and only its retry on a
// fresh factor answers: the same roundoff reduced cost beside a basic
// cost of 100, and basic values drifted past the residual check. The
// engine must agree with the exact rational simplex on each.
func TestIllConditionedVerdicts(t *testing.T) {
	const tiny = 1.0 / 1024
	zero := []float64{0, 0, 0, 0, 0, 0}
	type row struct {
		coeffs []float64
		sense  Sense
		rhs    float64
	}
	for _, c := range []struct {
		name      string
		objective []float64
		rows      []row
	}{
		{"tied ratio steps a row infeasible", []float64{1, 0, 0, 0, 0, 0}, []row{
			{[]float64{6, 0, 0, 0, tiny, 0}, LE, 0},
			{[]float64{0, tiny, 0, 0, 3, 0}, GE, 0},
			{[]float64{0, 0.25, 0.5, 0, 0, 0}, GE, tiny},
			{zero, LE, 0},
		}},
		{"pivot on roundoff", []float64{0, 0, 0, 0, 1, 0}, []row{
			{[]float64{1, -3, 0, 0, 0, 0}, LE, 0},
			{[]float64{0, -tiny, 0, 0, 0.5, -0.5}, LE, 0},
			{[]float64{0, 0, 0, 0.5, -3, -0.5}, LE, 0},
			{[]float64{0, 0, 0, 0.5, 0.5, 1}, LE, 1},
			{[]float64{-6, 0, 0, tiny, 0, 0}, GE, 0},
			{zero, LE, 0},
		}},
		{"roundoff reduced cost", []float64{0, 0, 0, 0, 1, 0}, []row{
			{[]float64{1, -3, 0, 0, 0, 0}, LE, 0},
			{[]float64{0, -tiny, 0, 0, 3, -0.5}, LE, 0},
			{[]float64{0, 0, 0, 3, 0, -0.5}, GE, 0},
			{[]float64{0, 0, 0, 0.5, 0.5, 0}, LE, 1},
			{[]float64{-6, 0, 0, tiny, 0, 0}, GE, 0},
			{zero, LE, 0},
		}},
		// The same at 100 times the objective: the roundoff reduced cost,
		// 3e-7, is past the certificate's tolerance.
		{"roundoff reduced cost the certificate rejects", []float64{0, 0, 0, 0, 100, 0}, []row{
			{[]float64{1, -3, 0, 0, 0, 0}, LE, 0},
			{[]float64{0, -tiny, 0, 0, 3, -0.5}, LE, 0},
			{[]float64{0, 0, 0, 3, 0, -0.5}, GE, 0},
			{[]float64{0, 0, 0, 0.5, 0.5, 0}, LE, 1},
			{[]float64{-6, 0, 0, tiny, 0, 0}, GE, 0},
			{zero, LE, 0},
		}},
		// The cold run stops at the optimum with basic values near 3.7e5
		// that its pivots updated incrementally: their drift of 8e-7
		// leaves the first row 4e-7 off its zero right-hand side, past
		// the certificate's residual tolerance. (The empty rows' slacks
		// set the pivot path.)
		{"basic values drift past the certificate", []float64{0, 0, 0, 0, 0, 1}, []row{
			{[]float64{1, -0.5, 0, 0, 0, 0.5}, LE, 0},
			{[]float64{0, 0, 0, 3, 0, -0.5}, GE, 0},
			{[]float64{1, 0, 0, 0, 0, 0}, LE, 10},
			{[]float64{-6, 0, 0, tiny, 0, 0}, LE, 0},
			{zero, LE, 0},
			{zero, LE, 0},
			{zero, LE, 0},
		}},
		{"exact tiny phase-1 reduced cost, optimal", []float64{100, 0, 0, 0, 0, 0}, []row{
			{[]float64{3, 0, 0, -tiny, 0, 0}, EQ, tiny},
			{[]float64{0, -6, -1, -tiny, 0, 0}, LE, 0.5},
			{[]float64{tiny, 0, 0, 0, 0, 0}, EQ, tiny},
			{[]float64{0, tiny, 0, -1, 0, 0}, EQ, 2},
		}},
		{"exact tiny phase-1 reduced cost, unbounded", []float64{100, 0, 0, 0, 0, 0}, []row{
			{[]float64{0, 0, -tiny, 0, 0, 0}, LE, -1},
			{[]float64{0, -3, 0, 0, tiny, 0}, GE, tiny},
			{[]float64{0, tiny, -6, -tiny, 0, 0}, EQ, 0},
		}},
	} {
		p := &Problem{NumVars: 6, Objective: c.objective}
		for _, r := range c.rows {
			p.AddConstraint(r.coeffs, r.sense, r.rhs)
		}
		exact, xerr := solveExact(p)
		var want *Solution
		if xerr == nil {
			obj, _ := exact.Float64()
			want = &Solution{Objective: obj}
		}
		got, _, err := SolveWarm(p, nil)
		if d := disagreement(want, got, xerr, err); d != "" {
			t.Errorf("%s: engine vs exact: %s", c.name, d)
			continue
		}
		if err == nil {
			assertFeasible(t, p, got.X)
		}
	}
}
