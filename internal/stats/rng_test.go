package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestLogNormalMoments(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 200000
	mu, sigma := 0.0, 0.5
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormal(r, mu, sigma)
	}
	wantMean := math.Exp(mu + sigma*sigma/2)
	if got := Mean(xs); !almostEq(got, wantMean, 0.02*wantMean) {
		t.Errorf("lognormal mean = %v, want ~%v", got, wantMean)
	}
	for _, x := range xs[:100] {
		if x <= 0 {
			t.Fatalf("lognormal produced non-positive %v", x)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	lo, hi := 1.0, 1000.0
	for i := 0; i < 10000; i++ {
		x := BoundedPareto(r, 1.1, lo, hi)
		if x < lo || x > hi {
			t.Fatalf("pareto sample %v outside [%v,%v]", x, lo, hi)
		}
	}
	// Degenerate parameters fall back to lo.
	if got := BoundedPareto(r, 0, 1, 10); got != 1 {
		t.Errorf("alpha=0 fallback = %v", got)
	}
	if got := BoundedPareto(r, 1, 5, 5); got != 5 {
		t.Errorf("hi<=lo fallback = %v", got)
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if BoundedPareto(r, 1.5, 1, 1000) < 10 {
			below++
		}
	}
	// A heavy-tailed but shape-1.5 Pareto puts the large majority of
	// mass near the lower bound.
	if frac := float64(below) / n; frac < 0.9 {
		t.Errorf("fraction below 10 = %v, want > 0.9", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += Exponential(r, 4)
	}
	if got := sum / n; !almostEq(got, 4, 0.1) {
		t.Errorf("exp mean = %v, want ~4", got)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		x := TruncNormal(r, 0.5, 0.3, 0, 1)
		if x < 0 || x > 1 {
			t.Fatalf("TruncNormal sample %v outside [0,1]", x)
		}
	}
	// Pathological: mean far outside the range still clamps in range.
	x := TruncNormal(r, 100, 0.001, 0, 1)
	if x < 0 || x > 1 {
		t.Errorf("clamped sample %v outside [0,1]", x)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(r, weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if !almostEq(frac0, 0.25, 0.02) {
		t.Errorf("index 0 frequency = %v, want ~0.25", frac0)
	}
	// Degenerate weights.
	if got := WeightedChoice(r, []float64{0, 0}); got != 0 {
		t.Errorf("all-zero weights = %d, want 0", got)
	}
	if got := WeightedChoice(r, []float64{-1, -2}); got != 0 {
		t.Errorf("negative weights = %d, want 0", got)
	}
}
