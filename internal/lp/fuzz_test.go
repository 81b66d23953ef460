package lp

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// fuzzBytes hands out the fuzzer's bytes one at a time and zeros once
// they run out, so a short input decodes to a small, zero-heavy (that
// is, degenerate) program instead of being rejected.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) next() int {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return int(b)
}

// The value tables are dyadic, so every product the solvers form is
// exact or nearly so: 1/1024 is the near-singular pivot, zeros are
// over-represented for degenerate vertices and zero right-hand sides,
// negatives flip rows. A program gets the tiny pivot at most once:
// two or three of them compound to 2^-20 or 2^-30, at the solvers'
// absolute eps of 1e-9, where an exact reduced cost and roundoff look
// the same and no float verdict can be trusted.
var (
	fuzzCoeffs = [16]float64{0, 0, 0, 1, -1, 2, -2, 0.5, -0.5, 3, -3, 0.25, 1.0 / 1024, -1.0 / 1024, 4, 1.5}
	fuzzRHS    = [16]float64{0, 0, 1, 2, 4, 10, -1, -2, 0.5, 1.0 / 1024, 3, 7, -4, 5, 8, 6}
	fuzzObj    = [8]float64{0, 1, -1, 2, -2, 0.5, 3, -0.25}
	fuzzScale  = [4]float64{2, -1, 0.5, -2}
)

// decodeFuzzLP builds an LP of at most 6 variables and 7 rows whose rows
// are fresh, exact or scaled copies of an earlier row (duplicated and
// parallel constraints), an earlier row negated with its sense flipped,
// or a single entry that may be the tiny pivot; then a column may be
// overwritten by a scaled copy of another (parallel columns).
func decodeFuzzLP(in *fuzzBytes) *Problem {
	tiny := false
	coeff := func() float64 {
		v := fuzzCoeffs[in.next()%len(fuzzCoeffs)]
		if math.Abs(v) == 1.0/1024 {
			if tiny {
				return 256 * v
			}
			tiny = true
		}
		return v
	}
	nVars := 1 + in.next()%6
	nRows := 1 + in.next()%7
	p := &Problem{NumVars: nVars, Objective: make([]float64, nVars)}
	for j := range p.Objective {
		p.Objective[j] = fuzzObj[in.next()%len(fuzzObj)]
	}
	for i := 0; i < nRows; i++ {
		kind := in.next() % 8
		sense := Sense(1 + in.next()%3)
		rhs := fuzzRHS[in.next()%len(fuzzRHS)]
		coeffs := make([]float64, nVars)
		switch {
		case kind >= 4 && i > 0 && kind < 7:
			src := p.Constraints[in.next()%i]
			scale := 1.0
			if kind == 5 {
				scale = fuzzScale[in.next()%len(fuzzScale)]
			}
			for j, v := range src.Coeffs {
				coeffs[j] = scale * v
			}
			if in.next()%2 == 0 { // consistent copy, else a fresh RHS
				rhs = scale * src.RHS
				sense = src.Sense
				if kind == 6 {
					for j := range coeffs {
						coeffs[j] = -coeffs[j]
					}
					rhs = -src.RHS
					switch src.Sense {
					case LE:
						sense = GE
					case GE:
						sense = LE
					}
				} else if scale < 0 && sense != EQ {
					sense = LE + GE - sense
				}
			}
		case kind == 7:
			coeffs[in.next()%nVars] = coeff()
		default:
			for j := range coeffs {
				coeffs[j] = coeff()
			}
		}
		p.AddConstraint(coeffs, sense, rhs)
	}
	if b := in.next(); b%4 == 0 {
		dst, src := in.next()%nVars, in.next()%nVars
		scale := fuzzScale[in.next()%len(fuzzScale)]
		for i := range p.Constraints {
			p.Constraints[i].Coeffs[dst] = scale * p.Constraints[i].Coeffs[src]
		}
	}
	return p
}

// perturbFuzzLP is the next control period of p: the same matrix, the
// objective and the right-hand side moved by decoded amounts (which may
// flip a row's sign, and with it the standard form).
func perturbFuzzLP(p *Problem, in *fuzzBytes) *Problem {
	q := &Problem{NumVars: p.NumVars, Objective: append([]float64(nil), p.Objective...)}
	for j := range q.Objective {
		q.Objective[j] += fuzzObj[in.next()%len(fuzzObj)] / 4
	}
	for _, c := range p.Constraints {
		q.AddConstraint(c.Coeffs, c.Sense, c.RHS+fuzzRHS[in.next()%len(fuzzRHS)]/2)
	}
	return q
}

// disagreement describes how two solves of one program differ — verdict
// (the same sentinel error, or both optimal) or objective (beyond
// 1e-6·(1+|obj|)) — or is "" when they agree.
func disagreement(want, got *Solution, wantErr, gotErr error) string {
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && !errors.Is(gotErr, wantErr)) {
		return fmt.Sprintf("verdicts differ: %v vs %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	if tol := 1e-6 * (1 + math.Abs(want.Objective)); math.Abs(want.Objective-got.Objective) > tol {
		return fmt.Sprintf("objective %v vs %v", want.Objective, got.Objective)
	}
	return ""
}

// FuzzSolveMatchesDense differential-tests the sparse engine against the
// dense tableau on programs biased to degenerate and near-singular
// structure, asserts the optimality certificate on every optimum, then runs the warm leg of an MPC period: the program's
// optimal basis seeds a perturbed program, which must get a cold solve's
// verdict and objective. The float tableau is not always right on such
// programs — its incrementally updated Big-M reduced costs can drift past
// eps after a 1/1024 pivot, so it cycles or reports a bounded program
// unbounded — so where it and the engine disagree, the exact rational
// simplex (solveExact) decides, and the engine must agree with that.
func FuzzSolveMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 2, 3, 0, 0, 5, 3, 4, 5, 4, 1, 2, 0, 0, 6, 2, 7, 0, 1})
	f.Add([]byte{5, 6, 1, 1, 1, 1, 1, 1, 0, 2, 0, 3, 12, 3, 4, 5, 6, 7, 5, 1, 5, 0, 1, 6, 0, 6, 0, 1, 7, 2, 0, 2, 12, 0, 0, 1, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		p := decodeFuzzLP(in)
		ds, derr := SolveDense(p)
		s := mustStandard(t, p)
		ss, basis, _, serr := s.solve(nil)
		if serr == nil && !s.sv.certified() {
			t.Fatal("an optimum fails its certificate")
		}
		if d := disagreement(ds, ss, derr, serr); d != "" {
			exact, xerr := solveExact(p)
			var xs *Solution
			if xerr == nil {
				obj, _ := exact.Float64()
				xs = &Solution{Objective: obj}
			}
			if dx := disagreement(xs, ss, xerr, serr); dx != "" {
				t.Fatalf("sparse vs dense: %s; sparse vs exact: %s", d, dx)
			}
		}
		if serr != nil {
			return
		}
		assertFeasible(t, p, ss.X)
		q := perturbFuzzLP(p, in)
		cold, _, cerr := SolveWarm(q, nil)
		warm, _, werr := SolveWarm(q, basis)
		if d := disagreement(cold, warm, cerr, werr); d != "" {
			t.Fatalf("warm vs cold: %s", d)
		}
		if werr == nil {
			assertFeasible(t, q, warm.X)
		}
	})
}
