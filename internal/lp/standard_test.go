package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// vectors returns a problem's objective and right-hand sides, the two
// things Refill replaces.
func vectors(p *Problem) (objective, rhs []float64) {
	for _, c := range p.Constraints {
		rhs = append(rhs, c.RHS)
	}
	return p.Objective, rhs
}

// sameSolve requires two solves to agree to the last bit in everything a
// caller can observe or thread into the next solve.
func sameSolve(t *testing.T, what string, gotSol, wantSol *Solution, gotBasis, wantBasis *Basis) {
	t.Helper()
	if !reflect.DeepEqual(floatBits(gotSol.X), floatBits(wantSol.X)) ||
		math.Float64bits(gotSol.Objective) != math.Float64bits(wantSol.Objective) ||
		gotSol.Iterations != wantSol.Iterations {
		t.Fatalf("%s: kept standard form gives objective %v in %d pivots, rebuilt problem %v in %d",
			what, gotSol.Objective, gotSol.Iterations, wantSol.Objective, wantSol.Iterations)
	}
	if !reflect.DeepEqual(gotBasis.cols, wantBasis.cols) ||
		!reflect.DeepEqual(floatBits(gotBasis.b), floatBits(wantBasis.b)) {
		t.Fatalf("%s: next basis differs", what)
	}
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestKeptStandardMatchesRebuilt is the oracle of Refill: seeded MPC
// sequences (matrix fixed, objective and right-hand side drifting, the
// dual repair exercised) solved through one Standard that is refilled
// every period equal, at every step and to the last bit, a SolveWarm of
// the problem rebuilt from scratch — solution, objective, pivot count and
// the basis handed to the next period.
func TestKeptStandardMatchesRebuilt(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	pivots := 0
	for trial := 0; trial < 6; trial++ {
		in := randomMPC(r, 2+r.Intn(4), 3+r.Intn(10), 1+r.Intn(3))
		kept := mustStandard(t, in.problem())
		var keptBasis, freshBasis *Basis
		for period := 0; period < 8; period++ {
			p := in.problem()
			if !kept.Refill(vectors(p)) {
				t.Fatalf("trial %d period %d: refill refused an unchanged matrix", trial, period)
			}
			got, gotNext, err := kept.SolveWarm(keptBasis)
			if err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
			want, wantNext, err := SolveWarm(p, freshBasis)
			if err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
			sameSolve(t, "mpc sequence", got, want, gotNext, wantNext)
			if period > 0 {
				pivots += want.Iterations
			}
			keptBasis, freshBasis = gotNext, wantNext
			in = in.perturb(r)
		}
	}
	if pivots == 0 {
		t.Fatal("no warm period needed a pivot: the sequences no longer exercise the solver")
	}
}

// TestRefillRefusesWhatWouldRestandardize: a right-hand side that
// changes sign flips its row and re-assigns slack and artificial columns,
// so the kept form no longer is what NewStandard would build; Refill says
// so (as it does for a vector of the wrong length) and a rebuilt Standard
// gives the answer. Back on the original signs, a Standard built with a
// flipped row keeps negating that row's right-hand side.
func TestRefillRefusesWhatWouldRestandardize(t *testing.T) {
	build := func(rhs0 float64) *Problem {
		p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
		p.AddConstraint([]float64{1, -1}, LE, rhs0)
		p.AddConstraint([]float64{1, 1}, LE, 10)
		return p
	}
	kept := mustStandard(t, build(4))
	if kept.Refill(vectors(build(-2))) {
		t.Fatal("refill accepted a right-hand side that flips a row")
	}
	if kept.Refill([]float64{1}, []float64{4, 10}) || kept.Refill([]float64{1, 2}, []float64{4}) {
		t.Fatal("refill accepted a vector of the wrong length")
	}

	flipped := mustStandard(t, build(-2))
	if flipped.Refill(vectors(build(0))) {
		t.Fatal("refill accepted a zero right-hand side on a row built flipped")
	}
	flipped = mustStandard(t, build(-2))
	if !flipped.Refill(vectors(build(-3))) {
		t.Fatal("refill refused a right-hand side of the sign the row was built with")
	}
	got, gotNext, err := flipped.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, wantNext, err := SolveWarm(build(-3), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSolve(t, "flipped row", got, want, gotNext, wantNext)
	if math.Abs(got.Objective-20) > 1e-9 { // x = 0, y = 10
		t.Fatalf("objective %v, want 20", got.Objective)
	}
}

// TestCrashBasisCoversSwitchingRows: every switching row of the
// CBS-RELAX shape (Eq. 12, z_t − z_{t−1} − δ⁺ + δ⁻ = b, laid out as
// core.buildProblem lays it out beside its ≤ rows) starts from a column
// of its own — δ⁻, or δ⁺ on a row a negative b flipped — so NewStandard
// appends no artificial column, the cold solve starts primal feasible
// with no phase 1 to run, and its optimum is the dense oracle's.
func TestCrashBasisCoversSwitchingRows(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < 6; trial++ {
		in := randomMPC(r, 2+r.Intn(3), 3+r.Intn(4), 1+r.Intn(3))
		in.initial[0] = -3 // machine type 0's t = 0 row is flipped
		p := in.problem()
		s := mustStandard(t, p)
		if s.artStart != s.n || s.phase1 != nil {
			t.Fatalf("trial %d: %d artificial columns", trial, s.n-s.artStart)
		}
		nm, nn, w := in.nm, in.nn, in.w
		for tt := 0; tt < w; tt++ {
			for m := 0; m < nm; m++ {
				row := tt*(4*nm+2*nn) + 4*m + 3
				want := nm*nn*w + 2*nm*w + m*w + tt // δ⁻(m,t)
				if m == 0 && tt == 0 {
					want = nm*nn*w + nm*w // δ⁺(0,0)
				}
				if got := s.initBasis[row]; got != want {
					t.Fatalf("trial %d: switching row (%d,%d) starts from column %d, want %d", trial, m, tt, got, want)
				}
			}
		}
		sv := newSparseSolver(&s.std)
		sv.startCold()
		if !nonNegative(sv.xB) {
			t.Fatalf("trial %d: the crash basis is not primal feasible: %v", trial, sv.xB)
		}
		got, _, err := s.SolveWarm(nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := SolveDense(p)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		if d := disagreement(want, got, nil, nil); d != "" {
			t.Fatalf("trial %d: engine vs dense: %s", trial, d)
		}
		assertFeasible(t, p, got.X)
	}
}
