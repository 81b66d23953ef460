package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, _, err := SolveWarm(p, nil)
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	return s
}

func TestValidation(t *testing.T) {
	if _, _, err := SolveWarm(&Problem{NumVars: 0}, nil); !errors.Is(err, ErrBadProblem) {
		t.Errorf("zero vars: %v", err)
	}
	if _, _, err := SolveWarm(&Problem{NumVars: 2, Objective: []float64{1}}, nil); !errors.Is(err, ErrBadProblem) {
		t.Errorf("short objective: %v", err)
	}
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.Constraints = append(p.Constraints, Constraint{Coeffs: []float64{1, 2}, Sense: LE, RHS: 1})
	if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrBadProblem) {
		t.Errorf("bad row width: %v", err)
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{1}}
	p2.Constraints = append(p2.Constraints, Constraint{Coeffs: []float64{1}, Sense: 0, RHS: 1})
	if _, _, err := SolveWarm(p2, nil); !errors.Is(err, ErrBadProblem) {
		t.Errorf("bad sense: %v", err)
	}
}

func TestTextbookLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 -> x=2, y=6, obj=36.
	p := &Problem{NumVars: 2, Objective: []float64{3, 5}}
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	s := solveOK(t, p)
	if math.Abs(s.Objective-36) > 1e-6 {
		t.Errorf("objective = %v, want 36", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Errorf("x = %v, want [2 6]", s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// max x + y s.t. x + y = 5, x <= 3 -> obj 5.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	p.AddConstraint([]float64{1, 0}, LE, 3)
	s := solveOK(t, p)
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
	if math.Abs(s.X[0]+s.X[1]-5) > 1e-6 {
		t.Errorf("equality violated: %v", s.X)
	}
}

func TestGEConstraint(t *testing.T) {
	// min cost: max -(2x + 3y) s.t. x + y >= 4, x <= 3 -> x=3, y=1, cost 9.
	p := &Problem{NumVars: 2, Objective: []float64{-2, -3}}
	p.AddConstraint([]float64{1, 1}, GE, 4)
	p.AddConstraint([]float64{1, 0}, LE, 3)
	s := solveOK(t, p)
	if math.Abs(s.Objective+9) > 1e-6 {
		t.Errorf("objective = %v, want -9", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 0}}
	p.AddConstraint([]float64{0, 1}, LE, 1)
	if _, _, err := SolveWarm(p, nil); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x >= 1 expressed as -x <= -1; max -x -> x=1.
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	p.AddConstraint([]float64{-1}, LE, -1)
	s := solveOK(t, p)
	if math.Abs(s.X[0]-1) > 1e-6 {
		t.Errorf("x = %v, want 1", s.X[0])
	}
}

func TestDegenerateNoCycle(t *testing.T) {
	// A classic degenerate instance (Beale); Bland's rule must terminate.
	p := &Problem{NumVars: 4, Objective: []float64{0.75, -150, 0.02, -6}}
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1)
	s := solveOK(t, p)
	if math.Abs(s.Objective-0.05) > 1e-6 {
		t.Errorf("objective = %v, want 0.05", s.Objective)
	}
}

func TestZeroRHSFeasible(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, LE, 0)
	s := solveOK(t, p)
	if s.Objective != 0 {
		t.Errorf("objective = %v, want 0", s.Objective)
	}
}

// bruteForce2D enumerates all vertices of a 2-variable LE-only LP with
// x,y >= 0 and returns the best objective, or -Inf if infeasible... the
// feasible region always contains candidate vertices from pairwise
// intersections and the axes.
func bruteForce2D(obj []float64, cons []Constraint) float64 {
	var candidates [][2]float64
	candidates = append(candidates, [2]float64{0, 0})
	lines := make([][3]float64, 0, len(cons)+2) // ax + by = c
	for _, c := range cons {
		lines = append(lines, [3]float64{c.Coeffs[0], c.Coeffs[1], c.RHS})
	}
	lines = append(lines, [3]float64{1, 0, 0}, [3]float64{0, 1, 0})
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			a1, b1, c1 := lines[i][0], lines[i][1], lines[i][2]
			a2, b2, c2 := lines[j][0], lines[j][1], lines[j][2]
			det := a1*b2 - a2*b1
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (c1*b2 - c2*b1) / det
			y := (a1*c2 - a2*c1) / det
			candidates = append(candidates, [2]float64{x, y})
		}
	}
	best := math.Inf(-1)
	for _, cand := range candidates {
		x, y := cand[0], cand[1]
		if x < -1e-9 || y < -1e-9 {
			continue
		}
		ok := true
		for _, c := range cons {
			if c.Coeffs[0]*x+c.Coeffs[1]*y > c.RHS+1e-9 {
				ok = false
				break
			}
		}
		if ok {
			v := obj[0]*x + obj[1]*y
			if v > best {
				best = v
			}
		}
	}
	return best
}

// Property: on random bounded 2-variable LPs the simplex optimum matches
// brute-force vertex enumeration, and the solution is feasible.
func TestRandom2DMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		obj := []float64{r.Float64()*4 - 1, r.Float64()*4 - 1}
		ncons := 2 + r.Intn(4)
		p := &Problem{NumVars: 2, Objective: obj}
		cons := make([]Constraint, 0, ncons+1)
		for i := 0; i < ncons; i++ {
			row := []float64{r.Float64() * 2, r.Float64() * 2}
			rhs := r.Float64()*10 + 0.5
			p.AddConstraint(row, LE, rhs)
			cons = append(cons, Constraint{Coeffs: row, Sense: LE, RHS: rhs})
		}
		// Bounding box keeps every instance bounded.
		p.AddConstraint([]float64{1, 1}, LE, 50)
		cons = append(cons, Constraint{Coeffs: []float64{1, 1}, Sense: LE, RHS: 50})

		s, _, err := SolveWarm(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForce2D(obj, cons)
		if math.Abs(s.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex %v != brute force %v", trial, s.Objective, want)
		}
		for _, c := range cons {
			if c.Coeffs[0]*s.X[0]+c.Coeffs[1]*s.X[1] > c.RHS+1e-6 {
				t.Fatalf("trial %d: infeasible solution %v", trial, s.X)
			}
		}
		if s.X[0] < -1e-9 || s.X[1] < -1e-9 {
			t.Fatalf("trial %d: negative solution %v", trial, s.X)
		}
	}
}

// Random LPs with mixed senses: verify returned points satisfy all rows.
func TestRandomMixedFeasibility(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		nv := 2 + r.Intn(4)
		obj := make([]float64, nv)
		for i := range obj {
			obj[i] = r.Float64()*2 - 1
		}
		p := &Problem{NumVars: nv, Objective: obj}
		var rows []Constraint
		// Always bound the region.
		box := make([]float64, nv)
		for i := range box {
			box[i] = 1
		}
		p.AddConstraint(box, LE, 20)
		rows = append(rows, Constraint{Coeffs: box, Sense: LE, RHS: 20})
		for i := 0; i < 2+r.Intn(3); i++ {
			row := make([]float64, nv)
			for j := range row {
				row[j] = r.Float64()
			}
			sense := LE
			rhs := r.Float64() * 15
			if r.Intn(3) == 0 {
				sense = GE
				rhs = r.Float64() * 2 // keep feasible odds high
			}
			p.AddConstraint(row, sense, rhs)
			rows = append(rows, Constraint{Coeffs: row, Sense: sense, RHS: rhs})
		}
		s, _, err := SolveWarm(p, nil)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for ri, c := range rows {
			lhs := 0.0
			for j, v := range c.Coeffs {
				lhs += v * s.X[j]
			}
			switch c.Sense {
			case LE:
				if lhs > c.RHS+1e-6 {
					t.Fatalf("trial %d row %d: LE violated (%v > %v)", trial, ri, lhs, c.RHS)
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					t.Fatalf("trial %d row %d: GE violated (%v < %v)", trial, ri, lhs, c.RHS)
				}
			}
		}
	}
}
