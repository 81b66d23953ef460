package lp

import (
	"math"
	"math/rand"
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

// dualRepairState replays tryWarm's ladder on p from warm up to the dual
// repair and stops that after k pivots: the solver it returns is what the
// (k+1)-th pivot row is generated from — a folded inverse plus k etas.
// ok is false when this period needs no repair (the warm basis stayed
// primal feasible) or the repair finished in fewer than k pivots.
func dualRepairState(t *testing.T, p *Problem, warm *Basis, k int) (sv *sparseSolver, ok bool) {
	t.Helper()
	sv = newSparseSolver(&mustStandard(t, p).std)
	valid, feasible := sv.startWarm(warm)
	if !valid || sv.mActive {
		t.Fatalf("warm basis rejected (valid=%v, artificial basic=%v)", valid, sv.mActive)
	}
	if feasible {
		return nil, false
	}
	newB := sv.b
	sv.b = append([]float64(nil), warm.b...)
	copy(sv.xB, warm.xb)
	err := sv.run()
	sv.b = newB
	if err != nil {
		t.Fatalf("re-optimizing against the old RHS: %v", err)
	}
	sv.refactor()
	if sv.runDual(k) == nil {
		return nil, false
	}
	return sv, true
}

// TestBtranRowMatchesDense pins btranRow's arithmetic: on solver states
// taken mid-repair from seeded MPC sequences — every pivot count the
// repair passes through, every row of the inverse — its sparse-multiplier
// product is bit-for-bit the dense row scan it replaced.
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
				for row := 0; row < sv.m; row++ {
					want := sv.denseBtranRow(row)
					sv.btranRow(row)
					for j, w := range want {
						if math.Float64bits(sv.rho[j]) != math.Float64bits(w) {
							t.Fatalf("trial %d period %d after %d pivots: rho[%d] of row %d = %x, dense %x",
								trial, period, k, j, row, math.Float64bits(sv.rho[j]), math.Float64bits(w))
						}
					}
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
