package lp

import (
	"math/rand"
	"testing"
)

// solveCertified is a cold SolveWarm through a Standard whose solver the
// caller can inspect afterwards, and which requires every optimum it
// returns to hold its certificate — with an artificial left basic at
// zero or without.
func solveCertified(t *testing.T, p *Problem) (*Solution, error) {
	t.Helper()
	s := mustStandard(t, p)
	sol, _, _, err := s.solve(nil)
	if err == nil && !s.sv.certified() {
		t.Fatal("solve returned an optimum that fails its certificate")
	}
	return sol, err
}

// TestCertificateCatchesCorruptedWarmStart: basic values that no longer
// solve B·x_B = b — a warm start corrupted past startWarm's checks —
// carry through the simplex to an optimum whose certificate fails, while
// the same start uncorrupted certifies.
func TestCertificateCatchesCorruptedWarmStart(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	in := randomMPC(r, 3, 6, 2)
	_, basis, err := SolveWarm(in.problem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for period := 0; period < 10; period++ {
		in = in.perturb(r)
		p := in.problem()
		for _, corrupt := range []bool{false, true} {
			sv := newSparseSolver(&mustStandard(t, p).std)
			if o := sv.startWarm(basis); o != feasibleResume {
				break // corrupting the repair's start would only be recomputed away
			}
			if corrupt {
				k := period % sv.m
				sv.xB[k] += 1 + sv.xB[k]
			}
			if err := sv.run(); err != nil {
				t.Fatalf("period %d: %v", period, err)
			}
			switch ok := sv.certified(); {
			case corrupt && ok:
				t.Fatalf("period %d: a corrupted warm start certified", period)
			case !corrupt && !ok:
				t.Fatalf("period %d: the uncorrupted warm start failed its certificate", period)
			case corrupt:
				caught++
			}
		}
		if _, basis, err = SolveWarm(p, basis); err != nil {
			t.Fatal(err)
		}
	}
	if caught < 3 {
		t.Fatalf("only %d corrupted feasible resumes: the sequence no longer exercises them", caught)
	}
}

// TestWarmOutcomesNamed runs seeded MPC sequences — core.buildProblem's
// shape — through one kept Standard and requires every period after the
// first to finish from the previous basis: a feasible resume or a dual
// repair, never a cold restart, so a faster solver cannot be silently
// cold. Both warm outcomes must occur.
func TestWarmOutcomesNamed(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	seen := map[warmOutcome]int{}
	for trial := 0; trial < 6; trial++ {
		in := randomMPC(r, 2+r.Intn(4), 3+r.Intn(10), 1+r.Intn(3))
		s := mustStandard(t, in.problem())
		var basis *Basis
		for period := 0; period < 8; period++ {
			if !s.Refill(vectors(in.problem())) {
				t.Fatalf("trial %d period %d: refill refused", trial, period)
			}
			_, next, outcome, err := s.solve(basis)
			if err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
			switch {
			case period == 0 && outcome != coldStart:
				t.Fatalf("trial %d: period 0 without a basis reports %v", trial, outcome)
			case period > 0 && !outcome.warm():
				t.Fatalf("trial %d period %d: warm start fell back %v", trial, period, outcome)
			}
			seen[outcome]++
			basis = next
			in = in.perturb(r)
		}
	}
	if seen[feasibleResume] == 0 || seen[dualRepair] == 0 {
		t.Fatalf("outcomes %v: the sequences no longer exercise both warm paths", seen)
	}
	t.Logf("outcomes %v", seen)
}

// TestWarmSolveAllocatesOnlyItsResult is the allocation lid of a warm
// solve on a kept Standard: the factor, the eta file and the pricing
// vectors are the Standard's scratch, so once they have grown to a
// period's size a warm SolveWarm allocates the returned Solution (struct
// and X) and Basis (struct, cols and b) and nothing else, whatever its
// pivots.
func TestWarmSolveAllocatesOnlyItsResult(t *testing.T) {
	const resultAllocs = 5
	r := rand.New(rand.NewSource(555))
	in := randomMPC(r, 4, 10, 2)
	s := mustStandard(t, in.problem())
	_, basis, err := s.SolveWarm(nil)
	if err != nil {
		t.Fatal(err)
	}
	pivots := 0
	for period := 1; period < 8; period++ {
		in = in.perturb(r)
		if !s.Refill(vectors(in.problem())) {
			t.Fatal("refill refused")
		}
		var sol *Solution
		var next *Basis
		got := testing.AllocsPerRun(3, func() {
			if sol, next, err = s.SolveWarm(basis); err != nil {
				t.Fatal(err)
			}
		})
		if got != resultAllocs {
			t.Errorf("period %d: a warm solve of %d pivots allocates %v objects, want %d", period, sol.Iterations, got, resultAllocs)
		}
		pivots += sol.Iterations
		basis = next
	}
	if pivots == 0 {
		t.Fatal("no warm period pivoted: the lid pins nothing")
	}
}

// TestWarmBasisWithArtificialRestartsCold: of two parallel equality rows
// without a crash column, phase 1 takes one artificial out and leaves the
// other basic at zero, on a row no column can reach again. Phase 2 keeps
// it there, the optimum is certified with it basic, and the basis
// returned with it — which holds the artificial — restarts the next solve
// cold (coldArtificial) with the same answer.
func TestWarmBasisWithArtificialRestartsCold(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 2}}
	p.AddConstraint([]float64{1, 1}, EQ, 4)
	p.AddConstraint([]float64{2, 2}, EQ, 8)
	p.AddConstraint([]float64{1, 0}, LE, 3)
	s := mustStandard(t, p)
	sol, basis, _, err := s.solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 8 || !s.sv.certified() {
		t.Fatalf("objective %v (want 8), certified %v", sol.Objective, s.sv.certified())
	}
	held := false
	for _, c := range basis.cols {
		held = held || c >= s.artStart
	}
	if !held {
		t.Fatalf("basis %v holds no artificial: the program no longer leaves one basic", basis.cols)
	}
	again, _, outcome, err := s.solve(basis)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != coldArtificial || again.Objective != 8 {
		t.Fatalf("warm from it: outcome %v, objective %v; want %v, 8", outcome, again.Objective, coldArtificial)
	}
}

// TestCertificateRefusesPositiveArtificial: where phase 1 stops on an
// infeasible program (x ≤ 1, x ≥ 3, a zero objective) the basic values
// solve B·x_B = b, none is negative, and every dual check holds, but an
// artificial is basic at 2: no point of the program, and the certificate
// must say so.
func TestCertificateRefusesPositiveArtificial(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{0}}
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 3)
	sv := newSparseSolver(&mustStandard(t, p).std)
	sv.startCold()
	if err := sv.runPhase1(); err != ErrInfeasible {
		t.Fatalf("phase 1: %v, want ErrInfeasible", err)
	}
	if sv.certified() {
		t.Fatal("a basis with an artificial at 2 certified")
	}
}
