// Package lp provides primal simplex solvers for linear programs
//
//	maximize  c·x
//	subject to  A x {<=,=,>=} b,  x >= 0
//
// It is the optimization substrate behind CBS-RELAX (Eq. 14-16 of the
// paper): with a concave piecewise-linear utility the relaxed provisioning
// problem is exactly an LP. The solver uses the Big-M method for equality
// and >= rows (with the M component of every cost tracked symbolically,
// so no literal large constant is needed) and pivots by Dantzig's rule
// with a Bland fallback that guarantees termination on degenerate
// instances.
//
// Solve and SolveWarm (sparse.go) are the only solver: a sparse revised
// simplex with eta-file basis updates and warm starts from a previous
// optimal basis. The original dense tableau lives in dense_test.go as
// the independent oracle the sparse engine is differential-tested
// against; no non-test code can reach it.
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

// betterThanZero reports whether lexicographic cost (M, real) is positive.
func betterThanZero(real, bigM float64) bool {
	if bigM > eps {
		return true
	}
	if bigM < -eps {
		return false
	}
	return real > eps
}
