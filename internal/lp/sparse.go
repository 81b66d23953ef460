// Sparse revised simplex with an LU-factored basis and product-form (eta)
// updates — the production engine behind SolveWarm.
//
// The CBS-RELAX constraint matrix is overwhelmingly sparse: every
// x(m,n,t) column touches a capacity row pair and one scheduled-count
// row, every z(m,t) column a handful of linkage rows. The dense tableau
// (retained in dense_test.go as the differential-testing oracle) pays
// O(m·n) per pivot regardless; the revised simplex below stores the
// matrix column-wise and never forms B⁻¹. It keeps an LU factorization
// of the basis as it was at the last refactorization (factor.go:
// singleton peeling to a permuted triangle around a small dense bump)
// and one sparse eta matrix per pivot since. FTRAN (a column of B⁻¹A),
// BTRAN (the duals, or one row of B⁻¹ for a dual-simplex pivot) and the
// basic values each cost O(nnz(L+U) + etaNNZ); refactoring re-factors B
// from its column list, O(nnz(B) + bump³), and happens once the eta
// file holds refactorNNZFactor times the factor's nonzeros.
//
// SolveWarm additionally accepts the Basis captured by a previous solve
// of a structurally identical problem (same variables, constraints, and
// coefficients; only the objective and right-hand side may differ).
// Consecutive MPC control periods are exactly that — one shifted
// forecast window apart — so the previous optimal basis is usually
// optimal or a few pivots away. A Basis is only a column list and the
// right-hand side it was optimal for: the solver factors this problem's
// own columns at those positions and computes the basic values through
// that factor, so a Basis from another problem can name a singular or
// infeasible set of columns but never carry a wrong inverse. Every
// optimum, warm or cold, is checked by an O(nnz) certificate (primal
// feasibility, dual feasibility, zero duality gap) before it is
// returned; a warm solve that is refused at any step — shape, an
// artificial column, singular columns, a capture-time right-hand side
// the basis is infeasible for, an abandoned repair, a failed certificate
// — restarts cold, and says why (warmOutcome). A cold optimum that fails
// its certificate is re-run once from basic values recomputed through a
// fresh factor, and refused if it fails again. "Unbounded" likewise is
// said only on a ray that checks out (rayHolds).
//
// What a solve costs before its first pivot: NewStandard reads every
// dense row once, O(rows·vars), and allocates the column-wise matrix
// and its row-wise copy — for CBS-RELAX at 66 container types 1.6 MB of
// rows built and re-sparsified for a matrix that depends on the catalog
// alone. A
// Standard therefore outlives a solve: the caller that knows its matrix
// is fixed keeps it and Refills the two vectors a period changes,
// O(rows+vars), and the Standard keeps the solver's scratch — the
// factor, the eta file, the pricing vectors — so a warm solve allocates
// only the Solution and Basis it returns.
package lp

import (
	"errors"
	"math"
	"math/bits"
)

// Refactor policy: the basis is re-factored once the eta file holds more
// than refactorNNZFactor times the factor's nonzeros — from there on
// every FTRAN and BTRAN spends more on the etas than a fresh factor
// costs to apply — or at a hard pivot cap that bounds accumulated
// roundoff.
const (
	refactorMaxEtas   = 4096
	refactorNNZFactor = 2
)

// spCol is one sparse constraint-matrix column (row indices ascending).
type spCol struct {
	idx []int32
	val []float64
}

func unitCol(row int, v float64) spCol {
	return spCol{idx: []int32{int32(row)}, val: []float64{v}}
}

// eta is one product-form pivot update: the transformed entering column
// at pivot row r, stored with its diagonal 1/pivot entry included, as
// the solver's etaIdx/etaVal[start:end]. Applying it to v replaces v[r]
// with val_r·v_r and adds val_i·v_r to every off-pivot entry i.
type eta struct {
	r, start, end int
}

// Basis is the reusable state captured from an optimal solve: the basic
// column set and the right-hand side at capture time (needed to repair
// primal feasibility when the next problem's RHS has moved). SolveWarm
// uses it to seed the next solve of a structurally identical problem. It
// is opaque and immutable from the caller's point of view; a Basis may
// be reused for any number of warm solves.
type Basis struct {
	m, n int
	cols []int
	b    []float64 // standardized RHS the basis was optimal for
}

// std is a Problem in computational standard form: non-negative RHS,
// slack and artificial columns appended, one cost per column, and the
// matrix stored column-wise — and, without the artificial columns,
// row-wise (column indices ascending) for the dual simplex's pivot row.
// The artificial columns are the last ones, from artStart on; phase1 is
// the cost vector phase 1 prices them with (nil when there is none).
type std struct {
	m, n       int
	cols       []spCol
	rows       []spCol
	b          []float64
	c          []float64
	phase1     []float64
	artStart   int
	structural int
	initBasis  []int
}

// Standard is a Problem in standard form that outlives one solve: a
// caller whose constraint matrix is fixed — CBS-RELAX between two
// control periods — builds it once with NewStandard, then per solve only
// Refills the objective and the right-hand side and calls SolveWarm, so
// no dense row is rebuilt or re-sparsified. SolveWarm(p, warm) is the
// same two steps used once. A Standard holds its solver's scratch, so
// it must not be solved from two goroutines at once.
type Standard struct {
	std
	// flipped[i] records that row i was negated at build time (its RHS
	// was negative): Refill negates the new RHS the same way, and refuses
	// one whose sign would have standardized the row differently.
	flipped []bool
	sv      *sparseSolver // made by the first solve, reset by every one
}

// NewStandard validates p and puts it in standard form: rows with
// negative RHS are flipped, LE rows get a +1 slack and GE rows a -1
// surplus. It also picks the crash basis the cold solve starts from. An
// LE row starts from its slack. An EQ or GE row starts from a structural
// column that has its only nonzero there, and a positive one — the
// lowest-numbered such column — at the value b_i/a_ij ≥ 0, which moves
// no other row. A row without one gets a +1 artificial column, which
// phase 1 drives to zero. Every CBS-RELAX switching row (Eq. 12,
// z_t − z_{t−1} − δ⁺ + δ⁻ = b) has such a column, δ⁻, or δ⁺ where a
// negative b flipped the row, so CBS-RELAX needs no artificial and its
// cold solve starts primal feasible. p is not retained.
func NewStandard(p *Problem) (*Standard, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	m := len(p.Constraints)
	s := &Standard{flipped: make([]bool, m), std: std{
		m:          m,
		b:          make([]float64, m),
		structural: p.NumVars,
		initBasis:  make([]int, m),
	}}
	cols := make([]spCol, p.NumVars, p.NumVars+2*m)
	senses := make([]Sense, m)
	// Row-major append keeps each column's row indices ascending.
	for i, c := range p.Constraints {
		sign := 1.0
		senses[i] = c.Sense
		if c.RHS < 0 {
			s.flipped[i], sign = true, -1
			if c.Sense != EQ {
				senses[i] = LE + GE - c.Sense
			}
		}
		s.b[i] = sign * c.RHS
		for j, v := range c.Coeffs {
			if v != 0 {
				cols[j].idx = append(cols[j].idx, int32(i))
				cols[j].val = append(cols[j].val, sign*v)
			}
		}
	}
	for i := range s.initBasis {
		s.initBasis[i] = -1
	}
	for j, c := range cols {
		if len(c.idx) == 1 && c.val[0] > 0 && senses[c.idx[0]] != LE && s.initBasis[c.idx[0]] < 0 {
			s.initBasis[c.idx[0]] = j
		}
	}
	for i, sense := range senses {
		switch sense {
		case LE:
			s.initBasis[i] = len(cols)
			cols = append(cols, unitCol(i, 1))
		case GE:
			cols = append(cols, unitCol(i, -1))
		}
	}
	s.artStart = len(cols)
	for i, bj := range s.initBasis {
		if bj < 0 {
			s.initBasis[i] = len(cols)
			cols = append(cols, unitCol(i, 1))
		}
	}
	s.n, s.cols = len(cols), cols
	s.c = make([]float64, s.n)
	copy(s.c, p.Objective)
	if s.artStart < s.n {
		s.phase1 = make([]float64, s.n)
		for j := s.artStart; j < s.n; j++ {
			s.phase1[j] = -1
		}
	}
	s.rows = transpose(s.cols[:s.artStart], m)
	return s, nil
}

// transpose returns the m rows of cols, each row's column indices
// ascending.
func transpose(cols []spCol, m int) []spCol {
	count := make([]int, m)
	nnz := 0
	for _, c := range cols {
		for _, i := range c.idx {
			count[i]++
		}
		nnz += len(c.idx)
	}
	idx, val := make([]int32, nnz), make([]float64, nnz)
	rows := make([]spCol, m)
	off := 0
	for i, c := range count {
		rows[i] = spCol{idx: idx[off : off : off+c], val: val[off : off : off+c]}
		off += c
	}
	for j, c := range cols {
		for q, i := range c.idx {
			r := &rows[i]
			r.idx = append(r.idx, int32(j))
			r.val = append(r.val, c.val[q])
		}
	}
	return rows
}

// Refill replaces the objective and the right-hand side, both in the
// Problem's own terms (NumVars costs, one RHS per constraint, signs as
// the caller states them), and reports whether the result is exactly the
// standard form NewStandard would build from the problem so changed. It
// is not when a length is off or an RHS changed sign, which would flip a
// row and re-assign its slack, crash and artificial columns; the
// Standard is then left partly refilled and the caller must build a new
// one.
func (s *Standard) Refill(objective, rhs []float64) bool {
	if len(objective) != s.structural || len(rhs) != s.m {
		return false
	}
	copy(s.c, objective)
	for i, v := range rhs {
		if (v < 0) != s.flipped[i] {
			return false
		}
		if v < 0 {
			v = -v
		}
		s.b[i] = v
	}
	return true
}

// sparseSolver is the revised-simplex iteration state.
type sparseSolver struct {
	*std
	// rhs is the right-hand side the basic values solve for: std.b, or a
	// warm basis's capture-time one while the repair re-optimizes on it.
	rhs   []float64
	basis []int
	inB   []bool
	f     factor // the basis at the last refactorization
	spare factor // the next factorization, swapped in when it succeeds
	// The eta file: etas[k] is the k-th pivot since the last
	// refactorization, its entries etaIdx/etaVal[start:end].
	etas   []eta
	etaIdx []int32
	etaVal []float64
	xB     []float64 // current basic values B⁻¹·rhs

	// cost is what pricing runs on: std.c, or std.phase1 while phase 1
	// runs (inPhase1).
	cost     []float64
	inPhase1 bool

	u    []float64 // BTRAN scratch (c_B, or e_r, transformed through the etas)
	y    []float64 // duals
	w    []float64 // FTRAN scratch (transformed entering column)
	rho  []float64 // one row of B⁻¹ (dual simplex); a ray's column (primal)
	work []float64 // by constraint row: FTRAN's right-hand side, residuals
	bOld []float64 // a warm basis's capture-time RHS
	rc   []float64 // dual simplex: reduced costs
	// The dual simplex's pivot row, zero outside the columns marked in
	// touched (bit j%64 of word j/64); the reduced-cost update clears
	// both behind it.
	wrow    []float64
	touched []uint64
	iters   int
	// A column whose pricing is roundoff is ruled out of entering until
	// the basis changes: ruledOut[j] == basisStamp, a stamp every pivot
	// and every installed basis renews.
	ruledOut   []int
	basisStamp int
}

func newSparseSolver(s *std) *sparseSolver {
	return &sparseSolver{
		std:   s,
		rhs:   s.b,
		basis: make([]int, s.m),
		inB:   make([]bool, s.n),
		xB:    make([]float64, s.m),
		cost:  s.c,
		u:     make([]float64, s.m),
		y:     make([]float64, s.m),
		w:     make([]float64, s.m),
		rho:   make([]float64, s.m),
		work:  make([]float64, s.m),
		bOld:  make([]float64, s.m),
		rc:    make([]float64, s.n),
		wrow:  make([]float64, s.n),

		touched:    make([]uint64, (s.n+63)/64),
		ruledOut:   make([]int, s.n),
		basisStamp: 1,
	}
}

// install makes sv.basis (already set) the factored basis of an empty
// eta file and recomputes the basic values; false means its columns are
// singular.
func (sv *sparseSolver) install() bool {
	for i := range sv.inB {
		sv.inB[i] = false
	}
	for _, bj := range sv.basis {
		sv.inB[bj] = true
	}
	sv.rhs = sv.b
	sv.iters = 0
	sv.basisStamp++
	if !sv.f.build(sv.cols, sv.basis) {
		return false
	}
	sv.clearEtas()
	sv.computeXB()
	return true
}

func (sv *sparseSolver) clearEtas() {
	sv.etas, sv.etaIdx, sv.etaVal = sv.etas[:0], sv.etaIdx[:0], sv.etaVal[:0]
}

// startCold installs the crash basis, which is diagonal with a positive
// diagonal and therefore primal feasible.
func (sv *sparseSolver) startCold() {
	copy(sv.basis, sv.initBasis)
	sv.install()
}

// warmOutcome names how a solve used the basis it was handed: resumed
// from it, repaired it, or restarted cold for a stated reason.
type warmOutcome uint8

const (
	coldStart      warmOutcome = iota // no basis was given
	feasibleResume                    // still primal feasible: primal simplex from it
	dualRepair                        // re-optimized on its own RHS, then dual simplex to the new one
	// Cold restarts, by reason.
	coldMismatch        // it does not fit this problem's shape
	coldArtificial      // it holds an artificial column
	coldSingular        // its columns are singular in this problem
	coldResidual        // it is infeasible for its own capture-time RHS
	coldRepairAbandoned // the repair could not start or gave up
	coldIterLimit       // a warm run spent its pivot budget
	coldCertificate     // the warm optimum failed its certificate
)

var outcomeNames = [...]string{
	coldStart:           "cold",
	feasibleResume:      "feasible-resume",
	dualRepair:          "dual-repair",
	coldMismatch:        "cold:mismatch",
	coldArtificial:      "cold:artificial",
	coldSingular:        "cold:singular",
	coldResidual:        "cold:residual",
	coldRepairAbandoned: "cold:repair-abandoned",
	coldIterLimit:       "cold:iteration-limit",
	coldCertificate:     "cold:certificate",
}

func (o warmOutcome) String() string { return outcomeNames[o] }

// warm reports whether the solve finished from the basis it was handed.
func (o warmOutcome) warm() bool { return o == feasibleResume || o == dualRepair }

// startWarm seeds the solver from a previous basis: it must fit this
// problem's shape (coldMismatch), hold no artificial column — phase 2's
// duals say nothing of one, and the dual simplex leaves them out
// (coldArtificial) — and its columns must factor here (coldSingular). It then reports feasibleResume when the basic values
// are non-negative under the new right-hand side, dualRepair when they
// are not.
func (sv *sparseSolver) startWarm(wb *Basis) warmOutcome {
	if wb == nil || wb.m != sv.m || wb.n != sv.n ||
		len(wb.cols) != sv.m || len(wb.b) != sv.m {
		return coldMismatch
	}
	for i := range sv.inB {
		sv.inB[i] = false
	}
	for i, c := range wb.cols {
		if c < 0 || c >= sv.n || sv.inB[c] {
			return coldMismatch
		}
		if c >= sv.artStart {
			return coldArtificial
		}
		sv.basis[i] = c
		sv.inB[c] = true
	}
	if !sv.install() {
		return coldSingular
	}
	if !nonNegative(sv.xB) {
		return dualRepair
	}
	return feasibleResume
}

// nonNegative reports whether every basic value is primal feasible (and
// none is NaN).
func nonNegative(xB []float64) bool {
	for _, v := range xB {
		if !(v >= -1e-7) {
			return false
		}
	}
	return true
}

// solves reports whether xb solves B·xb = rhs for the current basis
// within 1e-7 relative (a NaN never does), in O(nnz(B)).
func (sv *sparseSolver) solves(xb, rhs []float64) bool {
	lhs := sv.work
	for i := range lhs {
		lhs[i] = 0
	}
	for k, bj := range sv.basis {
		x := xb[k]
		if x == 0 {
			continue
		}
		col := &sv.cols[bj]
		for t, i := range col.idx {
			lhs[i] += col.val[t] * x
		}
	}
	for i, v := range lhs {
		if b := rhs[i]; !(math.Abs(v-b) <= 1e-7*(1+math.Abs(b))) {
			return false
		}
	}
	return true
}

// computeXB recomputes the basic values B⁻¹·rhs through the factor and
// the eta file.
func (sv *sparseSolver) computeXB() {
	copy(sv.work, sv.rhs)
	sv.f.ftran(sv.work, sv.xB)
	sv.applyEtas(sv.xB)
}

// ftran computes out = B⁻¹·a: the factor first, then the eta file in
// application order.
func (sv *sparseSolver) ftran(a spCol, out []float64) {
	for i := range sv.work {
		sv.work[i] = 0
	}
	for t, i := range a.idx {
		sv.work[i] = a.val[t]
	}
	sv.f.ftran(sv.work, out)
	sv.applyEtas(out)
}

func (sv *sparseSolver) applyEtas(out []float64) {
	for k := range sv.etas {
		e := &sv.etas[k]
		t := out[e.r]
		if t == 0 {
			continue
		}
		out[e.r] = 0
		for q := e.start; q < e.end; q++ {
			out[sv.etaIdx[q]] += sv.etaVal[q] * t
		}
	}
}

// btranEtas transforms u (by basis position) through the eta file in
// reverse, the first half of a BTRAN.
func (sv *sparseSolver) btranEtas(u []float64) {
	for k := len(sv.etas) - 1; k >= 0; k-- {
		e := &sv.etas[k]
		var s float64
		for q := e.start; q < e.end; q++ {
			s += u[sv.etaIdx[q]] * sv.etaVal[q]
		}
		u[e.r] = s
	}
}

// computeDuals computes the duals yᵀ = c_Bᵀ·B⁻¹ by BTRAN: transform c_B
// through the etas in reverse, then through the factor.
func (sv *sparseSolver) computeDuals() {
	for i, bj := range sv.basis {
		sv.u[i] = sv.cost[bj]
	}
	sv.btranEtas(sv.u)
	sv.f.btran(sv.u, sv.y)
}

// reducedCost prices one column against the current duals.
func (sv *sparseSolver) reducedCost(j int) float64 {
	col := &sv.cols[j]
	var d float64
	for q, i := range col.idx {
		d += sv.y[i] * col.val[q]
	}
	return sv.cost[j] - d
}

// chooseEntering is Dantzig's rule — the largest reduced cost above eps,
// the lowest index among equals — or, once the grace budget is spent,
// Bland's (the lowest eligible index). Artificial columns never re-enter.
func (sv *sparseSolver) chooseEntering(bland bool) int {
	best, bestR := -1, eps
	for j := 0; j < sv.artStart; j++ {
		if sv.inB[j] || sv.ruledOut[j] == sv.basisStamp {
			continue
		}
		if r := sv.reducedCost(j); r > bestR {
			if bland {
				return j
			}
			best, bestR = j, r
		}
	}
	return best
}

// roundoff reports whether column j priced into the basis on roundoff,
// once the ratio test found no leaving row for it: its reduced cost is
// within margin(j).
func (sv *sparseSolver) roundoff(j int) bool {
	return sv.reducedCost(j) <= sv.margin(j)
}

// margin is how far the gain along the ray column j opens (x_j = 1,
// x_B = −w, w its FTRAN) can be off. The objective gains c_j − c_Bᵀw, its
// reduced cost. An FTRAN through an ill-conditioned basis gets each
// nonzero entry of w right only to within eps of the ray's length, its
// largest entry, so the gain is trusted only where it is above eps times
// c_j plus that length times the basic costs it weighs those entries
// with. On such a basis a slack column can price at 3e-9 because a ray
// entry of 3e-9, beside ones of 3e3, meets a basic cost of 1: an
// improvement that proves nothing, so the loop rules the column out
// instead of reporting the program unbounded. (Had that basic cost been
// 100, the column would price at 3e-7, past the certificate's tolerance:
// the certificate then refuses the stop, and the cold solve's retry
// re-prices on a fresh factor.) A ray through zero-cost basic columns
// gains exactly c_j however long it is, and stands.
func (sv *sparseSolver) margin(j int) float64 {
	weights, length := 0.0, 0.0
	for i, wi := range sv.w {
		if wi != 0 {
			weights += math.Abs(sv.cost[sv.basis[i]])
			length = math.Max(length, math.Abs(wi))
		}
	}
	return eps * (1 + math.Abs(sv.cost[j]) + length*weights)
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// chooseLeaving runs the ratio test on the transformed entering column,
// breaking ties toward the smallest basic column index (Bland-safe).
// Both tolerances scale with the column's largest entry once that
// passes 1. A pivot must exceed eps relative to it: on an
// ill-conditioned basis an entry of 1e-9 beside ones of 1e3 is
// roundoff, and pivoting on it leaves a basis that is singular in all
// but name. Two ratios tie within eps divided by it, so that stepping to
// a tied row's ratio instead of the minimum pushes the minimum's row at
// most eps below zero. After phase 1 an artificial can be left basic at
// zero, and it must stay there: its row blocks the column whichever way
// the column would move it, at a ratio of about zero, so it leaves
// before it can grow. One that no entering column ever reaches past the
// pivot tolerance stays at zero, as the certificate checks.
func (sv *sparseSolver) chooseLeaving() int {
	leave := -1
	best := math.Inf(1)
	scale := math.Max(1, maxAbs(sv.w))
	minPivot, tie := eps*scale, eps/scale
	for i := 0; i < sv.m; i++ {
		wi := sv.w[i]
		if wi < 0 && sv.basis[i] >= sv.artStart && !sv.inPhase1 {
			wi = -wi
		}
		if wi > minPivot {
			ratio := sv.xB[i] / wi
			if ratio < best-tie ||
				(math.Abs(ratio-best) <= tie && (leave < 0 || sv.basis[i] < sv.basis[leave])) {
				best = ratio
				leave = i
			}
		}
	}
	return leave
}

// pivot performs the basis exchange as an eta update: the basic values
// move along the entering direction, and the eta file gains one sparse
// factor instead of a dense elimination pass.
func (sv *sparseSolver) pivot(row, col int) {
	pv := sv.w[row]
	inv := 1 / pv
	theta := sv.xB[row] * inv
	start := len(sv.etaIdx)
	for i, wi := range sv.w {
		if i == row || wi == 0 {
			continue
		}
		sv.xB[i] -= theta * wi
		sv.etaIdx = append(sv.etaIdx, int32(i))
		sv.etaVal = append(sv.etaVal, -wi*inv)
	}
	sv.etaIdx = append(sv.etaIdx, int32(row))
	sv.etaVal = append(sv.etaVal, inv)
	sv.xB[row] = theta
	sv.etas = append(sv.etas, eta{r: row, start: start, end: len(sv.etaIdx)})
	leaving := sv.basis[row]
	sv.inB[leaving] = false
	sv.basis[row] = col
	sv.inB[col] = true
	sv.basisStamp++
	if len(sv.etas) >= refactorMaxEtas || len(sv.etaIdx) > refactorNNZFactor*sv.f.nnz {
		sv.refactor()
	}
}

// refactor re-factors the current basis from its columns, empties the
// eta file and resynchronizes the basic values from the right-hand side.
// Should the basis not factor at pivTol, the old factor and its eta file
// stay (they still represent it) and only the basic values are
// recomputed through them.
func (sv *sparseSolver) refactor() {
	if sv.spare.build(sv.cols, sv.basis) {
		sv.f, sv.spare = sv.spare, sv.f
		sv.clearEtas()
	}
	sv.computeXB()
}

var (
	// errIterLimit aborts a run that exhausted its pivot budget; warm
	// paths treat it as "retry cold" rather than a user-facing error.
	errIterLimit = errors.New("lp: iteration limit exceeded")
	// errWarmRepair aborts the dual-simplex repair; the caller falls
	// back to a cold solve, which re-derives the correct verdict.
	errWarmRepair = errors.New("lp: warm-start repair abandoned")
	// errUncertified is a cold optimum that fails its certificate even
	// after the basic values are recomputed from a fresh factor and every
	// column re-priced on it: the basis is too ill-conditioned for the
	// answer to be trusted. Solve and SolveWarm return it instead of an
	// answer.
	errUncertified = errors.New("lp: optimum failed its certificate")
	// errBadlyScaled is a column that prices in with no leaving row but
	// whose ray fails its check (rayHolds): the arithmetic cannot tell an
	// unbounded program from a badly scaled bounded one.
	errBadlyScaled = errors.New("lp: no verdict: the program is too badly scaled for an unbounded ray to check out")
)

// runBudget is the simplex loop with explicit iteration budgets; tests
// use it to force Bland's rule from the first pivot. It returns nil at
// an optimum of the costs it prices with. A column the ratio tests find
// no leaving row for is ruled out as roundoff — in phase 1 always, as
// its objective is bounded — or its ray is checked before the program
// is called unbounded.
func (sv *sparseSolver) runBudget(maxIter, blandAfter int) error {
	for iter := 0; iter < maxIter; iter++ {
		sv.computeDuals()
		enter := sv.chooseEntering(iter >= blandAfter)
		if enter < 0 {
			return nil
		}
		sv.ftran(sv.cols[enter], sv.w)
		leave := sv.chooseLeaving()
		if leave < 0 && sv.inPhase1 {
			leave = sv.artificialRow()
		}
		if leave < 0 && (sv.inPhase1 || sv.roundoff(enter)) {
			sv.ruledOut[enter] = sv.basisStamp
			continue
		}
		if leave < 0 {
			if !sv.rayHolds(enter) {
				return errBadlyScaled
			}
			return ErrUnbounded
		}
		sv.iters++
		sv.pivot(leave, enter)
	}
	return errIterLimit
}

// artificialRow is phase 1's second ratio test, for a column the first
// found no leaving row for: the smallest ratio over the basic
// artificials whose entry of w is at least the factor's pivTol, however
// far below chooseLeaving's pivot tolerance. Phase 1's costs are exact
// (−1 on each artificial, 0 elsewhere), so the column's phase-1 gain is
// the sum of exactly those entries, and a tiny one is no roundoff: exact
// arithmetic blocks the column on that row, and ruling the column out
// instead can report a feasible program infeasible
// (TestIllConditionedVerdicts). It returns −1 when no artificial backs
// the gain, which then was roundoff of the duals.
func (sv *sparseSolver) artificialRow() int {
	leave, best := -1, math.Inf(1)
	for i, wi := range sv.w {
		if sv.basis[i] >= sv.artStart && wi >= pivTol {
			if ratio := sv.xB[i] / wi; ratio < best {
				leave, best = i, ratio
			}
		}
	}
	return leave
}

// rayHolds checks, in O(nnz), the ray column j opens once the ratio test
// found no leaving row — x_j = 1, x_B = −w — before it is reported as a
// proof of unboundedness: w must solve B·w = a_j (within solves'
// tolerance), no basic value may fall along it (no entry of −w below
// −1e-7), and the gain c_j − c_Bᵀw must be past margin(j). On a program
// whose coefficients span many orders of magnitude an FTRAN can return a
// w that fails the first test, and a ray that proves nothing.
func (sv *sparseSolver) rayHolds(j int) bool {
	a := sv.rho
	clear(a)
	col := &sv.cols[j]
	for q, i := range col.idx {
		a[i] = col.val[q]
	}
	gain := sv.cost[j]
	for i, wi := range sv.w {
		if wi > 1e-7 {
			return false
		}
		gain -= sv.cost[sv.basis[i]] * wi
	}
	return gain > sv.margin(j) && sv.solves(sv.w, a)
}

// btranRow computes sv.rho = e_rᵀ·B⁻¹, row r of the basis inverse (the
// pivot row generator for the dual simplex): e_r pushed back through the
// eta file, then a BTRAN through the factor, O(etaNNZ + nnz(L+U)).
func (sv *sparseSolver) btranRow(r int) {
	u := sv.u
	for i := range u {
		u[i] = 0
	}
	u[r] = 1
	sv.btranEtas(u)
	sv.f.btran(u, sv.rho)
}

// runDual restores primal feasibility after an RHS change with dual
// simplex pivots: the basis must be dual feasible for the current
// objective (it was just re-optimized against the old RHS) and hold no
// artificial (startWarm). Any anomaly — dual unboundedness (an infeasibility
// proof the caller re-derives with a cold solve), a vanishing pivot,
// the iteration cap — bails with errWarmRepair instead of guessing.
//
// Reduced costs are priced once and then updated incrementally across
// pivots (rc_j ← rc_j − θ_d·w_j). Drift in them cannot corrupt the
// answer: the basis and xB updates are exact regardless of which
// eligible pivot is chosen, and the primal cleanup that follows
// re-prices from scratch — stale rc only risks a longer path.
//
// The pivot budget is explicit, like runBudget's, so tests can stop the
// repair after k pivots and inspect the state the next pivot row is
// generated from.
func (sv *sparseSolver) runDual(maxIter int) error {
	rc := sv.rc
	sv.computeDuals()
	clear(rc)
	for j := 0; j < sv.artStart; j++ {
		if sv.inB[j] {
			continue
		}
		r := sv.reducedCost(j)
		if r > 0 {
			r = 0 // clamp post-optimal rounding drift
		}
		rc[j] = r
	}
	clear(sv.wrow)
	clear(sv.touched)
	for iter := 0; iter < maxIter; iter++ {
		if pivoted, err := sv.dualPivot(); !pivoted {
			return err
		}
	}
	return errWarmRepair
}

// dualPivot makes one dual simplex pivot. It reports false with a nil
// error when the basic values are primal feasible (no pivot is due), and
// false with errWarmRepair when the pivot row offers no entering column
// or a vanishing pivot.
//
// The pivot row α = ρᵀA is built from ρ's nonzeros (pivotRow), and the
// ratio test and the reduced-cost update visit only the columns it
// touched, in ascending order. That is the same arithmetic as a loop
// over every nonbasic column: an untouched column's α_j is +0, which the
// ratio test skips, and rc_j − θ·(+0) can at most turn an rc_j of −0
// into +0 — no comparison below tells the two apart, and rc is scratch
// the primal cleanup re-prices.
func (sv *sparseSolver) dualPivot() (bool, error) {
	rc, wrow := sv.rc, sv.wrow
	// Leaving row: most negative basic value below −eps. A looser
	// threshold leaves behind values that a badly scaled row
	// amplifies: −1e-7 beside a 1/1024 coefficient moves the
	// objective by 3e-4.
	r, worst := -1, -eps
	for i, v := range sv.xB {
		if v < worst {
			r, worst = i, v
		}
	}
	if r < 0 {
		return false, nil
	}
	sv.btranRow(r)
	sv.pivotRow()
	// Entering column: dual ratio test over columns that can absorb
	// the infeasibility (pivot-row entry < 0), smallest |rc/w| wins,
	// ties toward the lowest column index.
	enter, bestRatio := -1, math.Inf(1)
	for k, word := range sv.touched {
		for ; word != 0; word &= word - 1 {
			j := k<<6 | bits.TrailingZeros64(word)
			wj := wrow[j]
			if sv.inB[j] || wj >= -eps {
				continue
			}
			ratio := rc[j] / wj
			if ratio < bestRatio-eps ||
				(math.Abs(ratio-bestRatio) <= eps && (enter < 0 || j < enter)) {
				bestRatio, enter = ratio, j
			}
		}
	}
	if enter < 0 {
		return false, errWarmRepair
	}
	sv.ftran(sv.cols[enter], sv.w)
	if math.Abs(sv.w[r]) <= eps {
		return false, errWarmRepair
	}
	// Update reduced costs over the pre-pivot nonbasic set, clearing
	// the pivot row behind, then give the departing column its
	// post-pivot value −θ_d.
	theta := rc[enter] / wrow[enter]
	for k, word := range sv.touched {
		for ; word != 0; word &= word - 1 {
			j := k<<6 | bits.TrailingZeros64(word)
			if !sv.inB[j] {
				v := rc[j] - theta*wrow[j]
				if v > 0 {
					v = 0
				}
				rc[j] = v
			}
			wrow[j] = 0
		}
		sv.touched[k] = 0
	}
	rc[sv.basis[r]] = -theta
	sv.iters++
	sv.pivot(r, enter)
	return true, nil
}

// pivotRow adds α = ρᵀA over the non-artificial columns into wrow and
// marks each column it reaches in touched. It walks ρ's nonzero rows in
// ascending order, so each α_j receives the products ρ_i·a_ij in the
// order a dot product down column j takes them; a row with ρ_i = 0
// would add ±0, which cannot change a sum that starts at +0.
func (sv *sparseSolver) pivotRow() {
	for i, ri := range sv.rho {
		if ri == 0 {
			continue
		}
		row := &sv.rows[i]
		for q, j := range row.idx {
			sv.wrow[j] += ri * row.val[q]
			sv.touched[j>>6] |= 1 << (j & 63)
		}
	}
}

func (sv *sparseSolver) run() error {
	// Dantzig until the grace budget is spent, then Bland's rule
	// guarantees termination.
	return sv.runBudget(500*(sv.m+sv.n+10), 20*(sv.m+sv.n+10))
}

// runPhase1 drives the crash basis's artificial columns to zero, if it has
// any: the same loop, maximizing −Σ artificials. Where it stops, an
// artificial still above 1e-7 means no feasible point exists; the ones
// left basic at zero stay there through phase 2 (chooseLeaving).
func (sv *sparseSolver) runPhase1() error {
	if sv.phase1 == nil {
		return nil
	}
	sv.cost, sv.inPhase1 = sv.phase1, true
	err := sv.run()
	sv.cost, sv.inPhase1 = sv.c, false
	if err == nil && sv.artificialLeft() {
		return ErrInfeasible
	}
	return err
}

// artificialLeft reports whether an artificial column is basic above
// 1e-7.
func (sv *sparseSolver) artificialLeft() bool {
	for i, bj := range sv.basis {
		if bj >= sv.artStart && sv.xB[i] > 1e-7 {
			return true
		}
	}
	return false
}

// certified checks the optimum the solver stopped at, in O(nnz(A)), on
// the standardized problem max cᵀx, A·x = b, x ≥ 0 without the
// artificial columns: primal feasibility (x_B ≥ 0 and B·x_B = b, within
// 1e-7 relative, with every basic artificial within 1e-7 of zero), dual
// feasibility (no non-artificial reduced cost above 1e-7·(1+|c_j|)
// against freshly computed duals y) and a zero duality gap
// (|cᵀx − bᵀy| ≤ 1e-6·(1+|cᵀx|)).
func (sv *sparseSolver) certified() bool {
	if !nonNegative(sv.xB) || sv.artificialLeft() || !sv.solves(sv.xB, sv.b) {
		return false
	}
	sv.computeDuals()
	for j := 0; j < sv.artStart; j++ {
		if !sv.inB[j] && sv.reducedCost(j) > 1e-7*(1+math.Abs(sv.c[j])) {
			return false
		}
	}
	primal, dual := 0.0, 0.0
	for k, bj := range sv.basis {
		primal += sv.c[bj] * sv.xB[k]
	}
	for i, y := range sv.y {
		dual += sv.b[i] * y
	}
	return math.Abs(primal-dual) <= 1e-6*(1+math.Abs(primal))
}

func (sv *sparseSolver) solution() *Solution {
	x := make([]float64, sv.structural)
	for i, bj := range sv.basis {
		if bj < sv.structural {
			v := sv.xB[i]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[bj] = v
		}
	}
	obj := 0.0
	for j, c := range sv.c[:sv.structural] {
		obj += c * x[j]
	}
	return &Solution{X: x, Objective: obj, Iterations: sv.iters}
}

// captureBasis hands the basic column set to the returned Basis,
// together with the RHS the dual-simplex repair starts from next period.
func (sv *sparseSolver) captureBasis() *Basis {
	return &Basis{
		m:    sv.m,
		n:    sv.n,
		cols: append([]int(nil), sv.basis...),
		b:    append([]float64(nil), sv.b...),
	}
}

// tryWarm attempts the full warm-start ladder from a prior basis:
//
//  1. shape and factorization (else cold),
//  2. still primal feasible → plain primal simplex,
//  3. infeasible under the new RHS → re-optimize against the OLD RHS
//     (primal, absorbs the objective drift, usually 0 pivots), then
//     dual simplex to walk the RHS change back to feasibility, then a
//     final primal cleanup.
//
// A warm outcome (feasibleResume, dualRepair) comes with the run's
// verdict, which was reached from a feasible start and is therefore
// trustworthy; any other outcome names why the solver must restart cold.
func (sv *sparseSolver) tryWarm(warm *Basis) (warmOutcome, error) {
	switch o := sv.startWarm(warm); o {
	case feasibleResume:
		return sv.finishWarm(o, sv.run())
	case dualRepair:
	default:
		return o, nil
	}
	if o := sv.reoptimizeOld(warm); o != dualRepair {
		return o, nil
	}
	if sv.runDual(500*(sv.m+sv.n+10)) != nil {
		return coldRepairAbandoned, nil
	}
	return sv.finishWarm(dualRepair, sv.run()) // phase C: usually 0 pivots
}

// finishWarm maps a warm run's result to its outcome: a spent pivot
// budget restarts cold, any other verdict stands.
func (sv *sparseSolver) finishWarm(o warmOutcome, err error) (warmOutcome, error) {
	if errors.Is(err, errIterLimit) {
		return coldIterLimit, nil
	}
	return o, err
}

// reoptimizeOld is the repair's first phase: under the capture-time
// right-hand side the warm basis is primal feasible, so primal simplex
// absorbs the objective's drift there; the basic values are then
// recomputed under the new right-hand side, ready for the dual simplex.
// The starting values are computed under the captured right-hand side
// through this problem's factor, and the repair is refused
// (coldResidual) if they are infeasible there. It reports dualRepair
// when the repair may go on.
func (sv *sparseSolver) reoptimizeOld(warm *Basis) warmOutcome {
	copy(sv.bOld, warm.b)
	sv.rhs = sv.bOld
	if sv.computeXB(); !nonNegative(sv.xB) {
		sv.rhs = sv.b
		return coldResidual
	}
	err := sv.run()
	sv.rhs = sv.b
	switch {
	case errors.Is(err, errIterLimit):
		return coldIterLimit
	case err != nil:
		// Unbounded here says nothing about the new-RHS problem's
		// feasibility; let the cold solve produce the verdict.
		return coldRepairAbandoned
	}
	sv.refactor()
	return dualRepair
}

// SolveWarm solves p seeded from the basis of a previous solve and
// returns the solution together with the optimal basis for the next
// call. A nil, mismatched, or infeasible-under-the-new-RHS basis falls
// back to a cold solve; the answer is optimal either way, so callers can
// thread the returned Basis through a solve sequence unconditionally. An
// optimum that fails its optimality certificate, and fails it again
// after a cold retry from a fresh factor, is not returned: the error
// then reads "lp: optimum failed its certificate".
func SolveWarm(p *Problem, warm *Basis) (*Solution, *Basis, error) {
	s, err := NewStandard(p)
	if err != nil {
		return nil, nil, err
	}
	return s.SolveWarm(warm)
}

// SolveWarm is SolveWarm(p, warm) for the problem s currently states.
func (s *Standard) SolveWarm(warm *Basis) (*Solution, *Basis, error) {
	sol, next, _, err := s.solve(warm)
	return sol, next, err
}

// solve is SolveWarm that also names how it used warm.
func (s *Standard) solve(warm *Basis) (*Solution, *Basis, warmOutcome, error) {
	if s.sv == nil {
		s.sv = newSparseSolver(&s.std)
	}
	sv := s.sv
	outcome := coldStart
	if warm != nil {
		var err error
		if outcome, err = sv.tryWarm(warm); outcome.warm() {
			if err != nil {
				return nil, nil, outcome, err
			}
			if sv.certified() {
				return sv.solution(), sv.captureBasis(), outcome, nil
			}
			outcome = coldCertificate
		}
	}
	sv.startCold()
	err := sv.runPhase1()
	if err == nil {
		err = sv.run()
	}
	if err != nil {
		return nil, nil, outcome, err
	}
	if !sv.certified() {
		// Once more from basic values recomputed through a fresh factor,
		// re-pricing every column on it: pivots update the basic values
		// incrementally, and on large values their drift alone can fail
		// the residual check.
		sv.refactor()
		sv.basisStamp++
		if err := sv.run(); err != nil {
			return nil, nil, outcome, err
		}
		if !sv.certified() {
			return nil, nil, outcome, errUncertified
		}
	}
	return sv.solution(), sv.captureBasis(), outcome, nil
}
