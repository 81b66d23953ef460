package lp

import (
	"errors"
	"math"
)

// SolveDense runs the dense tableau simplex — the original solver, kept
// in a test file as the independent oracle the sparse revised simplex
// (sparse.go) is differential-tested against. It shares Problem.validate,
// betterThanZero and eps with the production solver and nothing else.
func SolveDense(p *Problem) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := newTableau(p)
	if err := t.run(); err != nil {
		return nil, err
	}
	return t.solution(p)
}

// tableau is a dense simplex tableau. Big-M costs are carried as a pair of
// reduced-cost rows (real part, M part) that are updated incrementally on
// every pivot, so selecting the entering column is O(n).
type tableau struct {
	m, n  int         // rows, total columns
	a     [][]float64 // m x n
	b     []float64   // m
	rcR   []float64   // reduced costs, real part (length n)
	rcM   []float64   // reduced costs, Big-M part
	basis []int       // basic variable per row
	inB   []bool      // inB[j]: column j is basic

	structural int // columns that map back to original variables
	artificial []bool
	iters      int
}

func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	rows := make([]Constraint, m)
	copy(rows, p.Constraints)
	for i := range rows {
		if rows[i].RHS < 0 {
			// Normalize to non-negative RHS by flipping the row.
			flipped := make([]float64, len(rows[i].Coeffs))
			for j, v := range rows[i].Coeffs {
				flipped[j] = -v
			}
			rows[i].Coeffs = flipped
			rows[i].RHS = -rows[i].RHS
			switch rows[i].Sense {
			case LE:
				rows[i].Sense = GE
			case GE:
				rows[i].Sense = LE
			}
		}
	}
	slacks, arts := 0, 0
	for _, r := range rows {
		switch r.Sense {
		case LE:
			slacks++
		case GE:
			slacks++
			arts++
		case EQ:
			arts++
		}
	}
	n := p.NumVars + slacks + arts
	t := &tableau{
		m: m, n: n,
		a:          make([][]float64, m),
		b:          make([]float64, m),
		rcR:        make([]float64, n),
		rcM:        make([]float64, n),
		basis:      make([]int, m),
		inB:        make([]bool, n),
		structural: p.NumVars,
		artificial: make([]bool, n),
	}
	copy(t.rcR, p.Objective)

	slackCol := p.NumVars
	artCol := p.NumVars + slacks
	for i, r := range rows {
		t.a[i] = make([]float64, n)
		copy(t.a[i], r.Coeffs)
		t.b[i] = r.RHS
		switch r.Sense {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.artificial[artCol] = true
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.artificial[artCol] = true
			t.basis[i] = artCol
			artCol++
		}
		t.inB[t.basis[i]] = true
	}

	// Initialize reduced costs: artificial basics have cost (0, -1), so
	// rc_j = c_j - Σ_{i: basis[i] artificial} (-1)·a[i][j] in the M part.
	for i := 0; i < m; i++ {
		if !t.artificial[t.basis[i]] {
			continue
		}
		row := t.a[i]
		for j := 0; j < n; j++ {
			t.rcM[j] += row[j]
		}
	}
	// Basic columns must show zero reduced cost.
	for _, bj := range t.basis {
		t.rcR[bj] = 0
		t.rcM[bj] = 0
	}
	return t
}

func (t *tableau) run() error {
	maxIter := 500 * (t.m + t.n + 10)
	// Dantzig's rule is fast but can cycle on degenerate problems;
	// switch to Bland's rule (guaranteed finite) after a grace budget.
	blandAfter := 20 * (t.m + t.n + 10)
	for iter := 0; iter < maxIter; iter++ {
		enter := t.chooseEntering(iter >= blandAfter)
		if enter < 0 {
			return t.checkFeasible()
		}
		leave := t.chooseLeaving(enter)
		if leave < 0 {
			if err := t.checkFeasible(); err != nil {
				return err
			}
			return ErrUnbounded
		}
		t.iters++
		t.pivot(leave, enter)
	}
	return errors.New("lp: iteration limit exceeded")
}

func (t *tableau) chooseEntering(bland bool) int {
	if bland {
		for j := 0; j < t.n; j++ {
			if t.inB[j] || (t.artificial[j] && !t.inB[j] && t.isDeparted(j)) {
				continue
			}
			if betterThanZero(t.rcR[j], t.rcM[j]) {
				return j
			}
		}
		return -1
	}
	best := -1
	bestR, bestM := 0.0, 0.0
	for j := 0; j < t.n; j++ {
		if t.inB[j] || t.artificial[j] {
			// Never re-enter artificials; they start basic and once
			// driven out stay out.
			continue
		}
		r, mm := t.rcR[j], t.rcM[j]
		if !betterThanZero(r, mm) {
			continue
		}
		if best < 0 || mm > bestM+eps || (math.Abs(mm-bestM) <= eps && r > bestR) {
			best, bestR, bestM = j, r, mm
		}
	}
	return best
}

// isDeparted reports whether an artificial column has left the basis.
func (t *tableau) isDeparted(j int) bool { return t.artificial[j] && !t.inB[j] }

func (t *tableau) chooseLeaving(enter int) int {
	leave := -1
	best := math.Inf(1)
	for i := 0; i < t.m; i++ {
		if t.a[i][enter] > eps {
			ratio := t.b[i] / t.a[i][enter]
			if ratio < best-eps ||
				(math.Abs(ratio-best) <= eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				best = ratio
				leave = i
			}
		}
	}
	return leave
}

func (t *tableau) pivot(row, col int) {
	pv := t.a[row][col]
	arow := t.a[row]
	inv := 1 / pv
	for j := 0; j < t.n; j++ {
		arow[j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.n; j++ {
			ai[j] -= f * arow[j]
		}
		t.b[i] -= f * t.b[row]
	}
	// Update the reduced-cost rows with the same elimination.
	fR, fM := t.rcR[col], t.rcM[col]
	if fR != 0 || fM != 0 {
		for j := 0; j < t.n; j++ {
			t.rcR[j] -= fR * arow[j]
			t.rcM[j] -= fM * arow[j]
		}
	}
	t.inB[t.basis[row]] = false
	t.basis[row] = col
	t.inB[col] = true
	t.rcR[col] = 0
	t.rcM[col] = 0
}

func (t *tableau) checkFeasible() error {
	for i, bi := range t.basis {
		if t.artificial[bi] && t.b[i] > 1e-7 {
			return ErrInfeasible
		}
	}
	return nil
}

func (t *tableau) solution(p *Problem) (*Solution, error) {
	x := make([]float64, p.NumVars)
	for i, bi := range t.basis {
		if bi < t.structural {
			x[bi] = t.b[i]
			if x[bi] < 0 && x[bi] > -1e-7 {
				x[bi] = 0
			}
		}
	}
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return &Solution{X: x, Objective: obj, Iterations: t.iters}, nil
}

// denseBtranRow is the reference e_rᵀ·B⁻¹ for the dual simplex's pivot
// row: e_r pushed back through the eta file, then a full dense dot
// against every folded inverse column — the O(m²) loop btranRow ran
// before it dotted only the multiplier's nonzero positions. It uses its
// own vectors, so calling it does not disturb the solver.
func (sv *sparseSolver) denseBtranRow(r int) []float64 {
	u := make([]float64, sv.m)
	u[r] = 1
	for k := len(sv.etas) - 1; k >= 0; k-- {
		e := &sv.etas[k]
		var s float64
		for q, i := range e.idx {
			s += u[i] * e.val[q]
		}
		u[e.r] = s
	}
	if sv.binv == nil {
		return u
	}
	rho := make([]float64, sv.m)
	for j := 0; j < sv.m; j++ {
		col := sv.binv[j]
		var s float64
		for i, c := range col {
			if u[i] != 0 {
				s += u[i] * c
			}
		}
		rho[j] = s
	}
	return rho
}
