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
// identical feasibility verdicts, matching objectives, feasible points.
func TestSparseMatchesDenseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		nVars := 1 + r.Intn(6)
		nRows := 1 + r.Intn(7)
		p := randomLP(r, nVars, nRows)
		ds, derr := SolveDense(p)
		ss, serr := Solve(p)
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
}

// TestSparseMatchesDenseLarge pushes past refactorEvery pivots so the
// eta-fold/refactor path is exercised, not just the pure eta file.
func TestSparseMatchesDenseLarge(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for trial := 0; trial < 10; trial++ {
		p := randomLP(r, 25, 35)
		ds, derr := SolveDense(p)
		ss, serr := Solve(p)
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
		cold, err := Solve(p)
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

// TestSolveWarmMismatchFallsBack feeds a basis from a structurally
// different problem; the solver must detect the mismatch and still
// return the correct cold answer.
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

	// Same shape, different matrix: the B⁻¹ verification must reject it.
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

// TestSparseInfeasibleBigM: contradictory equality rows leave an
// artificial basic at a positive level, which the Big-M accounting must
// report as ErrInfeasible (not as a bogus optimum).
func TestSparseInfeasibleBigM(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	if _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("got %v, want ErrInfeasible", err)
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{0}}
	p2.AddConstraint([]float64{1}, LE, 1)
	p2.AddConstraint([]float64{1}, GE, 3)
	if _, err := Solve(p2); !errors.Is(err, ErrInfeasible) {
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
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective != 0 {
		t.Fatalf("objective %g, want exactly 0", s.Objective)
	}
	assertFeasible(t, p, s.X)
}

// TestSparseUnbounded mirrors the dense unbounded test through the
// sparse path.
func TestSparseUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, -1}, GE, 1)
	if _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("got %v, want ErrUnbounded", err)
	}
}
