package lp

import (
	"math/rand"
	"testing"
)

// benchLP returns a feasible mid-size instance (25 vars, 35 rows) — big
// enough that the eta-refactor machinery engages. Note randomLP emits
// ~60% column fill: on such dense matrices the dense tableau is
// competitive, and the sparse solver's win shows up on the actual
// CBS-RELAX structure (a few nonzeros per column) — see the
// SolveRelaxed{Cold,Warm,Dense} benchmarks in internal/core.
func benchLP(b *testing.B) *Problem {
	r := rand.New(rand.NewSource(131))
	for {
		p := randomLP(r, 25, 35)
		if _, err := SolveDense(p); err == nil {
			return p
		}
	}
}

// BenchmarkSolveSparse is the production sparse revised simplex, cold.
func BenchmarkSolveSparse(b *testing.B) {
	p := benchLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveWarm(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDense is the dense-tableau reference on the same instance.
func BenchmarkSolveDense(b *testing.B) {
	p := benchLP(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveDense(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveWarmRepeat re-solves the identical problem from its own
// optimal basis — the zero-pivot floor of the warm-start path.
func BenchmarkSolveWarmRepeat(b *testing.B) {
	p := benchLP(b)
	_, basis, err := SolveWarm(p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveWarm(p, basis); err != nil {
			b.Fatal(err)
		}
	}
}
