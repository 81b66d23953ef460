package lp

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPivotLoopsAllocOnlyEtas pins the allocation contract of the two
// simplex loops: an iteration allocates exactly what its pivot does (the
// eta file's growth, and the spare factor's storage on the first
// refactor), so neither pricing, the ratio tests nor FTRAN/BTRAN
// allocate per pivot. Every count is a difference taken on the same
// solver state, so the lid holds on any toolchain; on a kept Standard
// even the pivots stop allocating (TestWarmSolveAllocatesOnlyItsResult).
func TestPivotLoopsAllocOnlyEtas(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	in := randomMPC(r, 2, 5, 2)
	s := mustStandard(t, in.problem())

	t.Run("runBudget", func(t *testing.T) {
		// A cold solve stopped after k pivots, Bland's rule from pivot 3.
		pivots := checkPivotsOnly(t, func(k int) *sparseSolver {
			sv := newSparseSolver(&s.std)
			sv.startCold()
			if err := sv.runBudget(k, 3); err != nil && err != errIterLimit {
				t.Fatal(err)
			}
			return sv
		})
		if pivots < 10 {
			t.Errorf("the cold solve took %d pivots: too few to pin the loop", pivots)
		}
	})

	t.Run("runDual", func(t *testing.T) {
		_, basis, err := s.SolveWarm(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Find a period whose warm basis needs a repair of a few pivots.
		for period := 1; period < 20; period++ {
			in = in.perturb(r)
			p := in.problem()
			pivots := checkPivotsOnly(t, func(k int) *sparseSolver {
				sv, ok := dualRepairState(t, p, basis, k)
				if !ok {
					return nil
				}
				return sv
			})
			if pivots >= 3 {
				return
			}
		}
		t.Error("no period needed a dual repair of 3 pivots or more")
	})
}

// checkPivotsOnly compares, for k = 1, 2, …, the objects the k-th pivot
// iteration of a loop allocates with those the pivot it made allocates
// on its own. state(k) rebuilds the solver and runs the loop for k
// pivots (nil when there is no such state); the iteration's count is
// state(k)'s minus state(k−1)'s, the pivot's is the same exchange applied
// to state(k−1) minus its FTRAN alone. It returns how many pivots the
// loop made.
func checkPivotsOnly(t *testing.T, state func(k int) *sparseSolver) int {
	t.Helper()
	// A collection cycle that starts inside a measurement adds the
	// runtime's own objects to it: collect only between pivots.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(f func()) float64 { return testing.AllocsPerRun(5, f) }
	for k := 1; ; k++ {
		runtime.GC()
		before, after := state(k-1), state(k)
		if before == nil || after == nil || after.iters != before.iters+1 {
			return k - 1
		}
		row := -1
		for i := range after.basis {
			if after.basis[i] != before.basis[i] {
				row = i
			}
		}
		if row < 0 {
			t.Fatalf("pivot %d left the basis as it was", k)
		}
		enter := after.basis[row]
		prepare := func() *sparseSolver {
			sv := state(k - 1)
			sv.ftran(sv.cols[enter], sv.w)
			return sv
		}
		iteration := allocs(func() { state(k) }) - allocs(func() { state(k - 1) })
		pivot := allocs(func() { prepare().pivot(row, enter) }) - allocs(func() { prepare() })
		if iteration != pivot {
			t.Errorf("pivot %d: the iteration allocates %.0f objects, its pivot %.0f", k, iteration, pivot)
		}
	}
}
