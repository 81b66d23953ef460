package lp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// mpcLP is the CBS-RELAX shape (core.buildProblem) rebuilt without
// importing core, which imports this package: nm machine types × nn
// container types × a horizon of w periods, columns x(m,n,t), z(m,t),
// δ⁺(m,t), δ⁻(m,t), s(n,t). The matrix depends only on the catalog;
// demand, price and initial machine state reach only the right-hand
// side and the objective, which is what makes consecutive periods warm
// startable.
type mpcLP struct {
	nm, nn, w                 int
	cpu, mem, idle, sw, avail []float64 // per machine type
	ccpu, cmem, value         []float64 // per container type

	demand  [][]float64 // [n][t]
	price   []float64   // [t]
	initial []float64   // [m]
}

func randomMPC(r *rand.Rand, nm, nn, w int) *mpcLP {
	in := &mpcLP{nm: nm, nn: nn, w: w}
	for m := 0; m < nm; m++ {
		in.cpu = append(in.cpu, 0.3+r.Float64()*0.7)
		in.mem = append(in.mem, 0.3+r.Float64()*0.7)
		in.idle = append(in.idle, 0.004+r.Float64()*0.02)
		in.sw = append(in.sw, r.Float64()*0.01)
		in.avail = append(in.avail, float64(20+r.Intn(60)))
		in.initial = append(in.initial, float64(r.Intn(20)))
	}
	in.demand = make([][]float64, nn)
	for n := 0; n < nn; n++ {
		in.ccpu = append(in.ccpu, 0.02+r.Float64()*0.3)
		in.cmem = append(in.cmem, 0.02+r.Float64()*0.3)
		in.value = append(in.value, 0.05+r.Float64()*0.2)
		for t := 0; t < w; t++ {
			in.demand[n] = append(in.demand[n], math.Floor(r.Float64()*100))
		}
	}
	for t := 0; t < w; t++ {
		in.price = append(in.price, 0.5+r.Float64())
	}
	return in
}

// perturb is the drift between consecutive control periods, as in
// core's warm-start tests: demand, prices and initial machine state
// move, the catalog (and hence the matrix) stays.
func (in *mpcLP) perturb(r *rand.Rand) *mpcLP {
	out := *in
	out.demand = make([][]float64, in.nn)
	for n, row := range in.demand {
		for _, d := range row {
			out.demand[n] = append(out.demand[n], math.Floor(d*(0.8+r.Float64()*0.4)))
		}
	}
	out.price = nil
	for _, p := range in.price {
		out.price = append(out.price, p*(0.9+r.Float64()*0.2))
	}
	out.initial = nil
	for m, a := range in.initial {
		out.initial = append(out.initial, math.Min(math.Round(a*(0.8+r.Float64()*0.4)), in.avail[m]))
	}
	return &out
}

func (in *mpcLP) problem() *Problem {
	nm, nn, w := in.nm, in.nn, in.w
	x := func(m, n, t int) int { return (m*nn+n)*w + t }
	z := func(m, t int) int { return nm*nn*w + m*w + t }
	dp := func(m, t int) int { return nm*nn*w + nm*w + m*w + t }
	dm := func(m, t int) int { return nm*nn*w + 2*nm*w + m*w + t }
	s := func(n, t int) int { return nm*nn*w + 3*nm*w + n*w + t }
	numCol := nm*nn*w + 3*nm*w + nn*w
	p := &Problem{NumVars: numCol, Objective: make([]float64, numCol)}
	for t := 0; t < w; t++ {
		for m := 0; m < nm; m++ {
			p.Objective[z(m, t)] = -in.price[t] * in.idle[m]
			p.Objective[dp(m, t)] = -in.sw[m]
			p.Objective[dm(m, t)] = -in.sw[m]
			for n := 0; n < nn; n++ {
				p.Objective[x(m, n, t)] = -in.price[t] * 0.01 * (in.ccpu[n]/in.cpu[m] + in.cmem[n]/in.mem[m])
			}
		}
		for n := 0; n < nn; n++ {
			p.Objective[s(n, t)] = in.value[n]
		}
	}
	row := make([]float64, numCol)
	add := func(sense Sense, rhs float64) {
		p.AddConstraint(row, sense, rhs)
		for i := range row {
			row[i] = 0
		}
	}
	for t := 0; t < w; t++ {
		for m := 0; m < nm; m++ {
			row[z(m, t)] = 1
			add(LE, in.avail[m])
			for n := 0; n < nn; n++ {
				row[x(m, n, t)] = in.ccpu[n]
			}
			row[z(m, t)] = -in.cpu[m]
			add(LE, 0)
			for n := 0; n < nn; n++ {
				row[x(m, n, t)] = in.cmem[n]
			}
			row[z(m, t)] = -in.mem[m]
			add(LE, 0)
			row[z(m, t)], row[dp(m, t)], row[dm(m, t)] = 1, -1, 1
			if t == 0 {
				add(EQ, in.initial[m])
			} else {
				row[z(m, t-1)] = -1
				add(EQ, 0)
			}
		}
		for n := 0; n < nn; n++ {
			row[s(n, t)] = 1
			for m := 0; m < nm; m++ {
				row[x(m, n, t)] = -1
			}
			add(LE, 0)
			row[s(n, t)] = 1
			add(LE, in.demand[n][t])
		}
	}
	return p
}

// repairStart replays tryWarm's ladder on p from warm up to the dual
// repair: it returns the solver the repair starts from when the ladder
// gets there (dualRepair), else the outcome that stopped it.
func repairStart(t *testing.T, p *Problem, warm *Basis) (*sparseSolver, warmOutcome) {
	t.Helper()
	sv := newSparseSolver(&mustStandard(t, p).std)
	if o := sv.startWarm(warm); o != dualRepair {
		return nil, o
	}
	if o := sv.reoptimizeOld(warm); o != dualRepair {
		return nil, o
	}
	return sv, dualRepair
}

// dualRepairState replays tryWarm's ladder on p from warm up to the dual
// repair and stops that after k pivots: the solver it returns is what the
// (k+1)-th pivot row is generated from — a fresh factor plus k etas.
// ok is false when this period needs no repair (the warm basis stayed
// primal feasible) or the repair finished in fewer than k pivots.
func dualRepairState(t *testing.T, p *Problem, warm *Basis, k int) (sv *sparseSolver, ok bool) {
	t.Helper()
	sv, o := repairStart(t, p, warm)
	switch o {
	case feasibleResume:
		return nil, false
	case dualRepair:
	default:
		t.Fatalf("warm basis rejected before the repair: %v", o)
	}
	if sv.runDual(k) == nil {
		return nil, false
	}
	return sv, true
}

// closeTo fails t unless got matches want within 1e-9 relative to want's
// largest entry.
func closeTo(t *testing.T, what string, got, want []float64) {
	t.Helper()
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i, v := range want {
		if math.Abs(got[i]-v) > 1e-9*scale {
			t.Fatalf("%s: entry %d is %v, dense solve %v", what, i, got[i], v)
		}
	}
}

// TestBtranRowMatchesDense pins the factor and the eta file together: on
// solver states taken mid-repair from seeded MPC sequences — every pivot
// count the repair passes through — FTRAN of every column, the duals'
// BTRAN and btranRow of every row agree within 1e-9 relative with a
// dense LU solve of the same basis matrix (dense_test.go).
func TestBtranRowMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	states, rows, deepest := 0, 0, 0
	for trial := 0; trial < 6; trial++ {
		in := randomMPC(r, 2+r.Intn(4), 3+r.Intn(10), 1+r.Intn(3))
		_, basis, err := SolveWarm(in.problem(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for period := 1; period < 6; period++ {
			in = in.perturb(r)
			p := in.problem()
			for k := 0; ; k++ {
				sv, ok := dualRepairState(t, p, basis, k)
				if !ok {
					break
				}
				states++
				if len(sv.etas) > deepest {
					deepest = len(sv.etas)
				}
				d := newDenseLU(sv.denseBasis())
				a := make([]float64, sv.m)
				for j := range sv.cols {
					for i := range a {
						a[i] = 0
					}
					for q, i := range sv.cols[j].idx {
						a[i] = sv.cols[j].val[q]
					}
					sv.ftran(sv.cols[j], sv.w)
					closeTo(t, "ftran", sv.w, d.solve(a))
				}
				cB := make([]float64, sv.m)
				for k, bj := range sv.basis {
					cB[k] = sv.c[bj]
				}
				sv.computeDuals()
				closeTo(t, "duals", sv.y, d.solveT(cB))
				for row := 0; row < sv.m; row++ {
					e := make([]float64, sv.m)
					e[row] = 1
					sv.btranRow(row)
					closeTo(t, "btranRow", sv.rho, d.solveT(e))
					rows++
				}
			}
			if _, basis, err = SolveWarm(p, basis); err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
		}
	}
	if states < 20 || deepest < 5 {
		t.Fatalf("only %d mid-repair states (longest eta file %d): the sequences no longer exercise the dual repair", states, deepest)
	}
	t.Logf("%d pivot rows over %d mid-repair states, longest eta file %d", rows, states, deepest)
}

// dualPivotColumns is dualPivot as it was before the pivot row was built
// from ρ's nonzeros: each nonbasic column's entry a dot product down the
// column, the ratio test and the reduced-cost update over every nonbasic
// column. It is kept as the bit-for-bit oracle of dualPivot.
func (sv *sparseSolver) dualPivotColumns() (bool, error) {
	rc, wrow := sv.rc, sv.wrow
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
	enter, bestRatio := -1, math.Inf(1)
	for j := 0; j < sv.n; j++ {
		if sv.inB[j] || j >= sv.artStart {
			continue
		}
		col := &sv.cols[j]
		var wj float64
		for q, i := range col.idx {
			wj += sv.rho[i] * col.val[q]
		}
		wrow[j] = wj
		if wj >= -eps {
			continue
		}
		ratio := rc[j] / wj
		if ratio < bestRatio-eps ||
			(math.Abs(ratio-bestRatio) <= eps && (enter < 0 || j < enter)) {
			bestRatio, enter = ratio, j
		}
	}
	if enter < 0 {
		return false, errWarmRepair
	}
	sv.ftran(sv.cols[enter], sv.w)
	if math.Abs(sv.w[r]) <= eps {
		return false, errWarmRepair
	}
	theta := rc[enter] / wrow[enter]
	for j := 0; j < sv.n; j++ {
		if sv.inB[j] || j >= sv.artStart {
			continue
		}
		v := rc[j] - theta*wrow[j]
		if v > 0 {
			v = 0
		}
		rc[j] = v
	}
	rc[sv.basis[r]] = -theta
	sv.iters++
	sv.pivot(r, enter)
	return true, nil
}

// repairMatchesColumns runs p's dual repair from warm twice in lockstep,
// one pivot at a time: dualPivot on one solver, the column-wise oracle on
// the other, from the same pricing. Every step must make the same pivot
// (the same entering column at the same leaving row) or stop with the
// same verdict, and leave bit-identical basic values and reduced costs
// equal as floats (an untouched column may keep an rc of −0 where the
// oracle writes +0). It returns the number of pivots, 0 when the ladder
// does not reach the repair.
func repairMatchesColumns(t *testing.T, what string, p *Problem, warm *Basis) int {
	t.Helper()
	got, o := repairStart(t, p, warm)
	if o != dualRepair {
		return 0
	}
	want, _ := repairStart(t, p, warm)
	got.runDual(0) // prices, pivots none
	want.runDual(0)
	for k := 0; ; k++ {
		before := append([]int(nil), want.basis...)
		gotPivot, gotErr := got.dualPivot()
		wantPivot, wantErr := want.dualPivotColumns()
		if gotPivot != wantPivot || gotErr != wantErr {
			t.Fatalf("%s, pivot %d: pivoted %v (%v), oracle %v (%v)", what, k+1, gotPivot, gotErr, wantPivot, wantErr)
		}
		for i := range want.basis {
			if got.basis[i] != want.basis[i] {
				t.Fatalf("%s, pivot %d: row %d holds column %d (was %d), oracle column %d",
					what, k+1, i, got.basis[i], before[i], want.basis[i])
			}
		}
		if !reflect.DeepEqual(floatBits(got.xB), floatBits(want.xB)) {
			t.Fatalf("%s, pivot %d: basic values differ: %v vs %v", what, k+1, got.xB, want.xB)
		}
		for j := range want.rc {
			if got.rc[j] != want.rc[j] {
				t.Fatalf("%s, pivot %d: rc[%d] %v, oracle %v", what, k+1, j, got.rc[j], want.rc[j])
			}
		}
		if !gotPivot {
			return k
		}
	}
}

// TestDualPivotMatchesColumns pins the row-wise pivot row, pivot by pivot,
// against the column-wise oracle over seeded MPC sequences (the matrix
// fixed, demand, prices and initial state drifting, as in core) and over
// the FuzzSolveMatchesDense corpus's warm legs.
func TestDualPivotMatchesColumns(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	repairs, pivots := 0, 0
	for trial := 0; trial < 20; trial++ {
		in := randomMPC(r, 2+r.Intn(4), 3+r.Intn(20), 1+r.Intn(4))
		_, basis, err := SolveWarm(in.problem(), nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for period := 1; period < 12; period++ {
			in = in.perturb(r)
			p := in.problem()
			if k := repairMatchesColumns(t, fmt.Sprintf("trial %d period %d", trial, period), p, basis); k > 0 {
				repairs, pivots = repairs+1, pivots+k
			}
			if _, basis, err = SolveWarm(p, basis); err != nil {
				t.Fatalf("trial %d period %d: %v", trial, period, err)
			}
		}
	}
	if repairs < 100 || pivots < 500 {
		t.Fatalf("only %d repairs, %d pivots: the sequences no longer exercise the dual repair", repairs, pivots)
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzSolveMatchesDense")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fuzzRepairs := 0
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if len(lines) != 2 || err != nil {
			t.Fatalf("%s: not a one-value corpus entry: %v", e.Name(), err)
		}
		in := &fuzzBytes{data: []byte(data)}
		p := decodeFuzzLP(in)
		_, basis, _, err := mustStandard(t, p).solve(nil)
		if err != nil {
			continue
		}
		if k := repairMatchesColumns(t, "corpus "+e.Name(), perturbFuzzLP(p, in), basis); k > 0 {
			fuzzRepairs++
			pivots += k
		}
	}
	t.Logf("%d MPC repairs and %d of %d corpus warm legs repaired, %d pivots in all", repairs, fuzzRepairs, len(entries), pivots)
}
