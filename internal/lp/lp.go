// Package lp provides a primal simplex solver for linear programs
//
//	maximize  c·x
//	subject to  A x {<=,=,>=} b,  x >= 0
//
// It is the optimization substrate behind CBS-RELAX (Eq. 14-16 of the
// paper): with a concave piecewise-linear utility the relaxed provisioning
// problem is exactly an LP. A cold solve starts from a crash basis — each
// row's slack, or a column whose only nonzero is in that row — and runs
// a phase 1 that drives an artificial column to zero only for the
// equality and >= rows that have neither (CBS-RELAX has none). Every
// column carries one cost. The solver pivots by Dantzig's rule with a
// Bland fallback that guarantees termination on degenerate instances.
//
// SolveWarm and Standard.SolveWarm (sparse.go) are the only solver: a
// sparse revised simplex over an LU factorization of the basis
// (factor.go) plus an eta file of the pivots since, with warm starts
// from a previous optimal basis, an O(nnz) optimality certificate on
// every optimum it returns and an O(nnz) check of the ray behind every
// "unbounded". The original Big-M tableau lives in dense_test.go as the
// independent oracle the engine is differential-tested against, beside
// an exact rational simplex that settles the fuzz target's
// disagreements; no non-test code can reach either.
package lp

import (
	"errors"
	"fmt"
)

// Sense is the direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a·x <= b
	GE                  // a·x >= b
	EQ                  // a·x == b
)

// Constraint is one row a·x (sense) b.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear program in the package's canonical form. All
// variables are implicitly non-negative.
type Problem struct {
	NumVars     int
	Objective   []float64 // length NumVars; maximized
	Constraints []Constraint
}

// Solution is an optimal assignment. Iterations counts simplex pivots,
// which is how warm-start savings are measured.
type Solution struct {
	X          []float64
	Objective  float64
	Iterations int
}

var (
	// ErrInfeasible is returned when no assignment satisfies the rows.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded is returned when the objective grows without bound.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrBadProblem is returned for malformed input.
	ErrBadProblem = errors.New("lp: malformed problem")
)

const eps = 1e-9

// AddConstraint appends a row to the problem, copying the coefficients.
func (p *Problem) AddConstraint(coeffs []float64, sense Sense, rhs float64) {
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	p.Constraints = append(p.Constraints, Constraint{Coeffs: c, Sense: sense, RHS: rhs})
}

func (p *Problem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars=%d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("%w: objective has %d coeffs, want %d",
			ErrBadProblem, len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != p.NumVars {
			return fmt.Errorf("%w: row %d has %d coeffs, want %d",
				ErrBadProblem, i, len(c.Coeffs), p.NumVars)
		}
		switch c.Sense {
		case LE, GE, EQ:
		default:
			return fmt.Errorf("%w: row %d has invalid sense", ErrBadProblem, i)
		}
	}
	return nil
}
